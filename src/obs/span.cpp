#include "obs/span.h"

#include "obs/sink.h"

namespace arbmis::obs {

namespace {

struct SpanTls {
  std::uint64_t current = 0;     ///< innermost open span id
  std::uint64_t root = 0;        ///< enclosing root span id
  std::uint64_t next_child = 0;  ///< per-root child counter
};

thread_local SpanTls g_span_tls;

}  // namespace

std::uint64_t current_span() noexcept { return g_span_tls.current; }

ScopedSpan::ScopedSpan(std::string_view name, std::uint64_t id,
                       std::uint64_t ref)
    : id_(id),
      prev_current_(g_span_tls.current),
      prev_root_(g_span_tls.root),
      prev_next_child_(g_span_tls.next_child) {
  g_span_tls.current = id_;
  g_span_tls.root = id_;
  g_span_tls.next_child = 0;
  emit(make_event<EventKind::kSpanBegin>(/*round=*/0, name, id_,
                                         /*parent=*/std::uint64_t{0}, ref));
}

ScopedSpan::~ScopedSpan() {
  emit(make_event<EventKind::kSpanEnd>(/*round=*/0, id_));
  g_span_tls.current = prev_current_;
  g_span_tls.root = prev_root_;
  g_span_tls.next_child = prev_next_child_;
}

ScopedChildSpan::ScopedChildSpan(std::string_view name, std::uint64_t ref)
    : active_(g_span_tls.current != 0) {
  if (!active_) return;
  prev_current_ = g_span_tls.current;
  id_ = g_span_tls.root * 4096 + (++g_span_tls.next_child);
  g_span_tls.current = id_;
  emit(make_event<EventKind::kSpanBegin>(/*round=*/0, name, id_, prev_current_,
                                         ref));
}

ScopedChildSpan::~ScopedChildSpan() {
  if (!active_) return;
  emit(make_event<EventKind::kSpanEnd>(/*round=*/0, id_));
  g_span_tls.current = prev_current_;
}

}  // namespace arbmis::obs
