#include "serve/protocol.h"

namespace arbmis::serve {

namespace {

/// True for every MsgType value: each request, its reply, and kError.
constexpr bool is_table_type(std::uint16_t type) noexcept {
#define ARBMIS_SERVE_KNOWN(name, type_byte, wire, Request, Reply) \
  if (type == (type_byte) || type == (type_byte) + 128) return true;
  ARBMIS_SERVE_MESSAGES(ARBMIS_SERVE_KNOWN)
#undef ARBMIS_SERVE_KNOWN
  return type == static_cast<std::uint16_t>(MsgType::kError);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxPayloadBytes) {
    throw ProtocolError("payload exceeds kMaxPayloadBytes");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  PayloadWriter header(out);
  header(kMagic, kProtocolVersion, static_cast<std::uint16_t>(frame.type),
         frame.request_id, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameReader::next(Frame& out) {
  auto le = [this](std::size_t at, int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(buffer_[at + i]) << (8 * i);
    }
    return v;
  };
  // Validate each header field as soon as its bytes arrive, not only once
  // the full header is buffered — a connection speaking the wrong protocol
  // is detected from its first few bytes instead of stalling both ends.
  if (buffer_.size() >= 4 && le(0, 4) != kMagic) {
    throw ProtocolError("bad frame magic");
  }
  if (buffer_.size() >= 6 && le(4, 2) != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version");
  }
  if (buffer_.size() >= 8 &&
      !is_table_type(static_cast<std::uint16_t>(le(6, 2)))) {
    throw ProtocolError("unknown message type");
  }
  if (buffer_.size() < kFrameHeaderBytes) return false;
  const auto type = static_cast<std::uint16_t>(le(6, 2));
  const std::uint64_t payload_len = le(16, 4);
  if (payload_len > kMaxPayloadBytes) {
    throw ProtocolError("frame payload too large");
  }
  if (buffer_.size() < kFrameHeaderBytes + payload_len) return false;
  out.type = static_cast<MsgType>(type);
  out.request_id = le(8, 8);
  out.payload.assign(
      buffer_.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
      buffer_.begin() +
          static_cast<std::ptrdiff_t>(kFrameHeaderBytes + payload_len));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(
                                      kFrameHeaderBytes + payload_len));
  return true;
}

void PayloadWriter::put_le(std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PayloadWriter::put_bytes(const std::string& s) {
  if (s.size() > kMaxPayloadBytes) throw ProtocolError("string too long");
  put_le(s.size(), 4);
  out_.insert(out_.end(), s.begin(), s.end());
}

std::uint64_t PayloadReader::le(std::size_t bytes) {
  if (remaining() < bytes) throw ProtocolError("payload truncated");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += bytes;
  return v;
}

std::string PayloadReader::get_bytes() {
  const std::uint64_t len = le(4);
  if (remaining() < len) throw ProtocolError("payload truncated");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

void PayloadReader::finish() const {
  if (pos_ != size_) throw ProtocolError("trailing payload bytes");
}

}  // namespace arbmis::serve
