#!/bin/sh
# Unreached-library gate: fails when libayd.a defines an ayd:: function
# that no shipped binary keeps and that cmake/unreached_allowlist.txt does
# not name, or when an allowlist entry is no longer unreached.
#
# Shipped binaries are the `ayd` CLI, the bench/ programs, the examples and
# the perfbench/ programs. The script builds them (tests off) at -O0 with
# one section per function, links them with --gc-sections, and compares the
# ayd:: text symbols of libayd.a against the ones the linked binaries keep.
# At -O0 nothing is inlined across functions, so the comparison is exact for
# out-of-line code. Header-only code (inline functions and templates that no
# library source instantiates) never reaches libayd.a, so it is outside this
# gate's reach; grep for its callers instead.
#
# Usage: cmake/check_unreached.sh   (builds into build-unreached/; CMake's
# own CMAKE_BUILD_PARALLEL_LEVEL sets how many jobs the builds run)

set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
out=$repo/build-unreached
allowlist=$repo/cmake/unreached_allowlist.txt

build_tree() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
    -DAYD_BUILD_TESTS=OFF -DAYD_BUILD_BENCH=ON -DAYD_BUILD_EXAMPLES=ON \
    > "$2.configure.log"
  cmake --build "$2" > "$2.build.log"
}

mkdir -p "$out"
build_tree "$repo" "$out/ayd"
build_tree "$repo/perfbench" "$out/perfbench"

# Demangled names of the global (T) and weak (W) text symbols of functions
# declared in namespace ayd (mangled _ZN[cv/ref-qualifiers]3ayd...); the
# mangled filter keeps out std:: instantiations over ayd types.
text_symbols() {
  nm --defined-only "$@" 2>/dev/null |
    sed -n 's/^[0-9a-f]* [TW] \(_ZN[KVRO]*3ayd.*\)$/\1/p' | c++filt
}

text_symbols "$out/ayd/libayd.a" | LC_ALL=C sort -u > "$out/defined.txt"
find "$out/ayd" "$out/perfbench" -maxdepth 1 -type f -perm -u=x |
  while read -r bin; do text_symbols "$bin"; done |
  LC_ALL=C sort -u > "$out/kept.txt"
LC_ALL=C comm -23 "$out/defined.txt" "$out/kept.txt" > "$out/unreached.txt"

# Allowlist lines are "<demangled symbol>  # <reason>"; '#' lines comment.
sed -n 's/^\([^#].*[^ ]\) *# .*$/\1/p' "$allowlist" |
  LC_ALL=C sort -u > "$out/allowed.txt"

status=0
extra=$(LC_ALL=C comm -23 "$out/unreached.txt" "$out/allowed.txt")
if [ -n "$extra" ]; then
  echo "library functions no shipped binary reaches (delete them, move" >&2
  echo "test-only code to tests/support/, or allowlist with a reason):" >&2
  echo "$extra" | sed 's/^/  /' >&2
  status=1
fi
stale=$(LC_ALL=C comm -13 "$out/unreached.txt" "$out/allowed.txt")
if [ -n "$stale" ]; then
  echo "allowlist entries that are reached or gone (remove them):" >&2
  echo "$stale" | sed 's/^/  /' >&2
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "unreached-library gate: $(wc -l < "$out/unreached.txt")" \
    "allowlisted symbols, nothing else unreached"
fi
exit "$status"
