"""Time one cold set-up of the program in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG...

Imports the package, parses every config (and every sweep row of it) and
builds each scenario's grid, which is what the CLI does before its first
solve or baseline call. Prints the elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
src, paths = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)

import persuade_ot.cli as cli  # noqa: E402

for path in paths:
    raw = cli.load_raw_config(path)
    cfg = cli.parse_config(raw)
    rows = [cfg]
    if cfg.sweep_parameter is not None:
        rows = [cli.parse_config(cli.set_config_path(raw, cfg.sweep_parameter, v))
                for v in cfg.sweep_values]
    for row in rows:
        cli.build_scenario(row)

print(time.perf_counter() - start)
