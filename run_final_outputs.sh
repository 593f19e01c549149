#!/bin/bash
# Final deliverable artifacts: full test log + full bench log, written
# next to this script (the checkout it belongs to).
cd "$(dirname "$0")"
ctest --test-dir build 2>&1 | tee test_output.txt | tail -3
for b in build/bench/*; do
  if [ -x "$b" ] && [ ! -d "$b" ]; then "$b"; fi
done 2>&1 | tee bench_output.txt | tail -3
echo FINAL_OUTPUTS_DONE
