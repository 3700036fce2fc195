#!/usr/bin/env sh
# Runs clang-tidy (config: .clang-tidy at the repo root) over the first-party
# sources, using the compile_commands.json exported by the CMake configure.
#
#   tools/run_tidy.sh [build-dir]
#
# Exits 0 when clang-tidy is not installed so CI images without LLVM don't
# fail the pipeline; exits non-zero on findings when it is.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "run_tidy.sh: clang-tidy not found on PATH; skipping (not a failure)."
  exit 0
fi

if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "run_tidy.sh: $build_dir/compile_commands.json missing." >&2
  echo "run_tidy.sh: configure first: cmake --preset default" >&2
  exit 2
fi

# First-party translation units only; third-party and generated code are
# out of scope for the profile.
files=$(find "$repo_root/src" "$repo_root/tools" "$repo_root/examples" \
  \( -name '*.cc' -o -name '*.cpp' \) 2>/dev/null | sort)

# --warnings-as-errors promotes every emitted diagnostic to an error so a
# finding fails the run: clang-tidy otherwise exits 0 on plain warnings.
status=0
for f in $files; do
  clang-tidy -p "$build_dir" --quiet --warnings-as-errors='*' "$f" \
    || status=1
done
exit $status
