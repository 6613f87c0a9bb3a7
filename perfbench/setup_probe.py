"""Set-up probe: everything the CLI does before it starts valuing.

Usage: python setup_probe.py CONFIG

Imports isoshap, loads the CSV, splits it and builds the grid and the
UtilitySpec through the CLI's own assembly functions, then exits. The
benchmark times the whole process, so interpreter start is included.
"""

from __future__ import annotations

import sys


def prepare(cfg: dict):
    """(train, spec) exactly as ``isoshap value|select`` assemble them."""
    from isoshap import cli

    seed = cli._master_seed(cfg)
    train, test = cli._prepare_splits(cfg, seed)
    return train, cli._build_spec(cfg, train, test, seed)


if __name__ == "__main__":
    from isoshap import cli

    prepare(cli._load_config(sys.argv[1]))
