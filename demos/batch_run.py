"""Drive the batch runner end to end from a config file.

Equivalent to:  python -m isoplab --config scan.cfg --out-dir lab_out
Each selected check writes {name}.csv (all graded rows) plus a plot-ready
{name}_plot.csv, and summary.json collects fitted constants and verdict
counts.  Reruns with the same seed are byte-identical.
"""

import json
import pathlib

from isoplab.cli import parse_config, run

cfg_text = """
# quick scan: two checks on a small grid
experiments = check_theorem1, check_kls
p_grid = 1, 2
n_grid = 2, 4
samples = 2000
seed = 42
out_dir = lab_out
"""
pathlib.Path("scan.cfg").write_text(cfg_text)

cfg = parse_config(cfg_text)
code = run(cfg)
print("exit code:", code)

out = pathlib.Path(cfg.out_dir)
print("files:", sorted(f.name for f in out.iterdir()))

summary = json.loads((out / "summary.json").read_text())
for name, block in summary["checks"].items():
    print(f"\n{name}: {block['verdicts']}")
    for key, consts in sorted(block["constants"].items()):
        print(f"  {key}: {consts}")
