#!/bin/sh
# Tour of the dmlwb command line.  Every command prints a JSON envelope on
# stdout (schema_version, tool, command, config, result) and a one-line
# summary on stderr, so output pipes cleanly into jq.
set -e

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/henon.json" <<'EOF'
{"f1": "y", "f2": "y^2 - x"}
EOF

cat > "$WORK/tri.json" <<'EOF'
{"f1": "2*x", "f2": "x^3*y + x^5"}
EOF

echo '== degree growth of the Henon map'
dmlwb degrees --map "$WORK/henon.json" --horizon 8

echo '== height and height bounds'
dmlwb height --point "3/2,5"
dmlwb northcott --bound 2 --dim 1

echo '== product formula at every relevant place'
dmlwb product-check --value 12/35

echo '== ruled surface model of a triangular map'
dmlwb fn-model --map "$WORK/tri.json" --n auto

echo '== certified basin of the fixed point at infinity'
dmlwb basin --map "$WORK/tri.json" --model fn:auto --point 1,1 --eps 2^-20 --horizon 30

echo '== curve periodicity and local intersections'
dmlwb curve-period --map "$WORK/tri.json" --curve "x" --max-period 4
dmlwb intersect --c1 "y - x^2" --c2 "y - 4" --at 0,0 --all-points

echo '== dichotomy scan'
cat > "$WORK/flip.json" <<'EOF'
{"f1": "x + 1", "f2": "-y"}
EOF
dmlwb dml scan --map "$WORK/flip.json" --curve "y - 1" --point 0,1 --horizon 10

echo '== batch experiment from a config file'
cat > "$WORK/neg.json" <<'EOF'
{"f1": "-x", "f2": "-y"}
EOF
cat > "$WORK/config.json" <<'EOF'
{
  "maps": ["MAPDIR/flip.json", "MAPDIR/neg.json"],
  "curves": ["y - 1", "x - 1"],
  "points": ["0,1", "1,1"],
  "horizons": {"N": 40, "K": 8}
}
EOF
sed -i "s#MAPDIR#$WORK#g" "$WORK/config.json"
dmlwb batch --config "$WORK/config.json" --jobs 2 --out "$WORK/batch.json"
echo "batch wrote $(wc -c < "$WORK/batch.json") bytes"

echo '== planar basin toward a fixed point; the bit guard ends the Henon orbit'
dmlwb basin --map "$WORK/henon.json" --model p2 --target 0,0 --point 1,2
