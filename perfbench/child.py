"""One benchmark sample: a fresh interpreter driving `partpoly.cli.run`.

    child.py run ARGS...          the CLI call, as a user makes it
    child.py setup ARGS...        import, build the parser and parse ARGS,
                                  then stop before dispatching
    child.py trace OUT ARGS...    the CLI call with per-layer spans, written
                                  as JSON to OUT

The parent puts the checkout's `src` on PYTHONPATH.
"""

import sys


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        from partpoly.cli import build_parser

        build_parser().parse_args(args)
        return 0
    if mode == "trace":
        import layers

        return layers.traced_run(args[0], args[1:])
    from partpoly.cli import run

    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
