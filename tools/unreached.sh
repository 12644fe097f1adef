#!/usr/bin/env bash
# Lists the sharp:: functions that no shipped binary reaches, and fails
# when that list differs from tools/unreached.allow.
#
# Usage: tools/unreached.sh        (no flags; run from anywhere)
#
# It builds, at -O0 -ffunction-sections and linked with
# -Wl,--gc-sections, into build-unreached/ at the repository root:
#   - `sharp`, `sharp-lint` and every bench/ and examples/ binary
#     (build-unreached/main, from the top-level CMakeLists.txt);
#   - `perfbench_driver` (build-unreached/perfbench, configured from
#     perfbench/CMakeLists.txt as it stands).
# At -O0 nothing is inlined, and the linker drops every function
# section no binary refers to. So a T/W symbol of a member of a
# src/**/libsharp_*.a that no binary defines is code only the unit
# tests run. The archives are rebuilt from the sources CMake lists
# now, so the object of a deleted or renamed source, which make leaves
# behind in a reused build directory, is not read. Only symbols whose
# qualified name is in sharp:: count; a std:: template instantiated on
# a sharp type does not.
#
# tools/unreached.allow holds the functions that a test on the test
# floor (the tests every change keeps, under their names and with every
# assertion) still calls, one a line: the test names (comma separated,
# no spaces), one space, then the demangled symbol as printed below.
# The script exits 1 when an unreached function is missing from the
# list, or when a listed function is reached or gone, so the list can
# only shrink. It exits 0 when the two agree, and 2 when a build fails.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build-unreached
allow=$root/tools/unreached.allow
jobs=$(nproc)

configure() {
    cmake -S "$1" -B "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
        "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections" \
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections" > /dev/null
}

# Compiler output goes to build.log, shown only when a build fails.
build() {
    make -s -C "$@" -j "$jobs" >> "$out/build.log" 2>&1 || {
        cat "$out/build.log" >&2
        echo "unreached.sh: build failed (make -C $*)" >&2
        exit 2
    }
}

configure "$root" "$out/main"
configure "$root/perfbench" "$out/perfbench"
: > "$out/build.log"
for dir in tools bench examples; do
    build "$out/main/$dir"
done
build "$out/perfbench" perfbench_driver

# Mangled names of functions in namespace sharp: nested names
# (_ZN, _ZNK, ...), local entities such as lambdas (_ZZN...) and
# virtual thunks (_ZTh/_ZTv) whose target is such a name.
sharp_symbol='^_Z(T[hv][^N]*)?Z?N[rVKRO]*5sharp'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find "$out/main/src" -name 'libsharp_*.a' -print0 \
    | xargs -0 nm --defined-only \
    | awk 'NF == 3 && $2 ~ /^[TW]$/ {print $3}' \
    | grep -E "$sharp_symbol" | sort -u > "$tmp/objects"
find "$out/main/tools" "$out/main/bench" "$out/main/examples" \
     "$out/perfbench" -maxdepth 1 -type f -perm -u+x -print0 \
    | xargs -0 nm --defined-only \
    | awk 'NF == 3 && $2 ~ /^[TtWw]$/ {print $3}' | sort -u > "$tmp/binaries"
comm -23 "$tmp/objects" "$tmp/binaries" | c++filt | sort -u > "$tmp/unreached"

grep -v '^#' "$allow" | grep -v '^$' | cut -d' ' -f2- | sort -u > "$tmp/allowed" \
    || true

status=0
while IFS= read -r symbol; do
    echo "unreached, not in tools/unreached.allow: $symbol"
    status=1
done < <(comm -23 "$tmp/unreached" "$tmp/allowed")
while IFS= read -r symbol; do
    echo "in tools/unreached.allow, but reached or gone: $symbol"
    status=1
done < <(comm -13 "$tmp/unreached" "$tmp/allowed")

echo "unreached sharp:: functions: $(wc -l < "$tmp/unreached")" \
     "(allowlisted: $(wc -l < "$tmp/allowed"))"
exit "$status"
