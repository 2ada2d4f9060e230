"""Set-up probe: what a command-line user pays before the first frame.

Run in a fresh interpreter with the program's sources on PYTHONPATH:

    python3 bench/probe.py --config CONFIG (--scene SPEC | --annotations FILE)

Times importing the package's command-line module (which imports every
layer), reading and splitting the config, and building the scene through
the same function the ``run`` subcommand uses.  Prints one JSON object
with import_s, config_s and load_s.
"""

import argparse
import json
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--scene")
    parser.add_argument("--annotations")
    args = parser.parse_args()

    t0 = time.perf_counter()
    from conformal_cbf import cli

    t1 = time.perf_counter()
    config, _task = cli.build_setup(cli.read_config_file(args.config))
    t2 = time.perf_counter()
    scene = cli.load_scene_for(config, args)
    t3 = time.perf_counter()
    json.dump(
        {
            "import_s": t1 - t0,
            "config_s": t2 - t1,
            "load_s": t3 - t2,
            "frames": len(scene.frames),
            "module": cli.__file__,
        },
        sys.stdout,
    )
    print()


if __name__ == "__main__":
    main()
