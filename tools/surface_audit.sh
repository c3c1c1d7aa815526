#!/usr/bin/env bash
# Library surface audit: lists the forumcast:: functions that the libraries
# define but no shipped executable keeps, and fails unless each one is on
# the keep-list tools/surface_keep.txt.
#
#   tools/surface_audit.sh BUILD_DIR
#
# Configures two trees under BUILD_DIR, both at -O0 (so nothing is inlined
# away and miscounted) with -ffunction-sections -fdata-sections and
# -Wl,--gc-sections (so the linker drops every function no executable
# reaches, transitively):
#   BUILD_DIR/main       the main project; every executable under tools/,
#                        bench/ and examples/ is built (not the tests)
#   BUILD_DIR/perfbench  the serving benchmark project (perfbench/)
# It then compares the forumcast:: text symbols (T/W/t) defined in the
# libforumcast_*.a archives with the union of those the executables keep,
# and prints the difference: one demangled signature per line, leaving out
# std:: instantiations and lambdas.
#
# The keep-list's non-comment lines read `<signature>  # <why it stays>`.
# The exit status is 1 when an unreached function is missing from it
# (delete the function, or add it with its reason) or when it names a
# function that is no longer unreached (drop the stale entry).
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
build_dir=$1

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$build_dir"
build_dir=$(cd "$build_dir" && pwd)
jobs=$(nproc)
keep_file="$root/tools/surface_keep.txt"

# -Wno-psabi: at -O0 GCC notes the vector-argument ABI of the GNU-vector
# kernel helpers in ml/kernels.cpp.
configure() {  # configure <source dir> <build dir>
  cmake -S "$1" -B "$2" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections -Wno-psabi" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

echo "surface audit: building at -O0 with --gc-sections in $build_dir" >&2
configure "$root" "$build_dir/main"
for dir in tools bench examples; do
  make -C "$build_dir/main/$dir" -j "$jobs" >/dev/null
done
configure "$root/perfbench" "$build_dir/perfbench"
make -C "$build_dir/perfbench" -j "$jobs" perfbench >/dev/null

executables=$(find "$build_dir/main/tools" "$build_dir/main/bench" \
                   "$build_dir/main/examples" -maxdepth 1 -type f -executable)
executables+=$'\n'"$build_dir/perfbench/perfbench"
echo "surface audit: $(wc -l <<<"$executables") executables" >&2

# Demangled forumcast:: text symbols of the given objects, one per line.
# Lambdas go, and so do std:: template instantiations: nm prints those after
# their return type (`forumcast::X* std::__addressof<forumcast::X>(...)`),
# whereas a std:: type inside a parameter list follows `(`, `<` or `, `.
text_symbols() {
  nm -C --defined-only "$@" |
    sed -nE 's/^[0-9a-f]+ [TWt] (forumcast::.*)$/\1/p' |
    sed -e '/{lambda(/d' -e '/[^,] std::/d' | sort -u
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
text_symbols "$build_dir"/main/src/*/libforumcast_*.a \
             "$build_dir"/main/src/*/*/libforumcast_*.a > "$work/defined"
# shellcheck disable=SC2086  # one path per line, no spaces in build paths
text_symbols $executables > "$work/kept"
comm -23 "$work/defined" "$work/kept" > "$work/unreached"
cat "$work/unreached"

sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' -e 's/[[:space:]]*#.*$//' \
  "$keep_file" | sort -u > "$work/keep"
status=0
unexpected=$(comm -23 "$work/unreached" "$work/keep")
if [[ -n "$unexpected" ]]; then
  echo "error: no executable reaches these functions; delete them or add" \
       "them to $keep_file with a reason:" >&2
  echo "$unexpected" >&2
  status=1
fi
stale=$(comm -13 "$work/unreached" "$work/keep")
if [[ -n "$stale" ]]; then
  echo "error: $keep_file lists functions that are now reached or gone;" \
       "drop them:" >&2
  echo "$stale" >&2
  status=1
fi
[[ $status -eq 0 ]] && echo "surface audit: every unreached function is on the keep-list" >&2
exit $status
