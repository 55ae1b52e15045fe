"""``python -m repro`` — dispatch to a sub-command.

``serve`` starts the HTTP serving tier (the only way to start it from
the shell); ``journal`` / ``recover`` are
the offline durability operations on a journal store; anything else
goes to the interactive menu application (the paper's Figure 5 CLI),
preserving its existing argument surface.
"""

import sys

_OPS_COMMANDS = ("journal", "recover")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        from repro.server.cli import main as serve_main
        return serve_main(argv[1:])
    if argv and argv[0] in _OPS_COMMANDS:
        from repro.app.ops_cli import main as ops_main
        return ops_main(argv)
    from repro.app.cli import main as app_main
    return app_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
