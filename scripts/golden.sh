#!/usr/bin/env bash
# Golden session-record corpus (see DESIGN.md § 13).
#
#   scripts/golden.sh            verify the committed corpus (CI gate)
#   scripts/golden.sh --update   regenerate every fixture in place
#
# Verification is four blocking checks:
#   1. the golden/ directory listing matches the fixtures() table
#      exactly — no orphan directories, no missing fixtures (a glob
#      alone would silently pass over a deleted or extra fixture);
#   2. every committed record replays through the oracle and matches its
#      stored reference (`session verify`, failures=0);
#   3. every fixture re-recorded from its own scenario header is
#      byte-identical to the committed .ecasr (`session verify` replays
#      the stored event log without re-planning, so only a re-record
#      catches a simulator or solver change that alters a session);
#   4. the rendered report and manifest of every fixture match the
#      committed report.txt / manifest.json.
set -euo pipefail
cd "$(dirname "$0")/.."

SESSION=target/release/session
cargo build --release -p ecas-bench --bin session >/dev/null

# One line per fixture: <name>|<session record arguments>.
fixtures() {
    cat <<'EOF'
tablev1-ours|--tablev 1 --approach Ours
tablev2-ours|--tablev 2 --approach Ours
tablev3-ours|--tablev 3 --approach Ours
tablev4-festive|--tablev 4 --approach FESTIVE
tablev5-optimal|--tablev 5 --approach Optimal
tablev1-youtube|--tablev 1 --approach Youtube
tablev2-bba|--tablev 2 --approach BBA
commute-ours|--context commute --seconds 180 --seed 2 --approach Ours
tablev1-ours-fault|--tablev 1 --approach Ours --fault 0.5 --fault-seed 1
EOF
}

if [[ "${1:-}" == "--update" ]]; then
    while IFS='|' read -r name args; do
        dir="golden/$name"
        mkdir -p "$dir"
        # shellcheck disable=SC2086
        "$SESSION" record $args "$dir/record.ecasr"
        "$SESSION" inspect "$dir/record.ecasr" >"$dir/report.txt"
        "$SESSION" inspect --json "$dir/record.ecasr" >"$dir/manifest.json"
    done < <(fixtures)
    echo "golden corpus regenerated"
    exit 0
fi

echo "== golden: directory listing matches the fixture table =="
expected="$(fixtures | cut -d'|' -f1 | sort)"
actual="$(find golden -mindepth 1 -maxdepth 1 -type d | sed 's|^golden/||' | sort)"
if ! diff <(echo "$expected") <(echo "$actual") >&2; then
    echo "golden/ directories do not match fixtures() (see diff above)" >&2
    exit 1
fi
while IFS='|' read -r name _; do
    if [[ ! -f "golden/$name/record.ecasr" ]]; then
        echo "golden/$name/record.ecasr is missing" >&2
        exit 1
    fi
done < <(fixtures)

echo "== golden: replay every committed record =="
"$SESSION" verify golden/*/record.ecasr

echo "== golden: re-record every fixture byte-for-byte =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
while IFS='|' read -r name _; do
    "$SESSION" rerecord "golden/$name/record.ecasr" "$tmp/$name.ecasr" >/dev/null
    cmp "golden/$name/record.ecasr" "$tmp/$name.ecasr"
done < <(fixtures)

echo "== golden: rendered artifacts match committed =="
while IFS='|' read -r name _; do
    dir="golden/$name"
    "$SESSION" inspect "$dir/record.ecasr" | diff -u "$dir/report.txt" -
    "$SESSION" inspect --json "$dir/record.ecasr" | diff -u "$dir/manifest.json" -
done < <(fixtures)

echo "golden corpus OK"
