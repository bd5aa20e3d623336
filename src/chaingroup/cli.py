"""Command-line entry point: every module as a subcommand, text in and out.

One result per line, with a machine-parsable key=value trailer. Exit status:
0 when the requested check passes or the object is produced, 1 when a check
fails, 2 for usage or malformed input, 3 for unexpected internal errors.
This module holds the registry of command groups, the parser and the
dispatch. Each group's operations, size caps and handler live in its own
module, chaingroup.commands.<group>, which the parser imports for the group
a call names and no other; that handler imports the library modules it
runs. Every answer, its trailer and its exit code go out through
chaingroup.commands._answer. CHAINGROUP_BUDGET (an integer) caps
enumeration sizes for the permutation and graph searches.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections.abc import Sequence

# group -> help, in the order the top-level help lists them
_GROUPS = {
    "braid": "braid word constructions and oracle checks",
    "hom": "braid-to-braid homomorphisms",
    "homology": "lattice chains and transvection algebra",
    "ln": "finite abelian quotients",
    "perm": "permutation representation search",
    "graph": "edge-transitive cyclic graph actions",
    "rh": "ramified covering arithmetic and order bounds",
    "suite": "named verification bundles",
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """Every group, and the operations of the group that argv names.

    The group is argv's first token that is not an option. Only its command
    module is imported, to add its operations and handler: the other groups'
    operations are never built, and the top-level help lists the groups alone.
    """
    parser = argparse.ArgumentParser(
        prog="chaingroup",
        description="exact braid, homology, quotient, graph, and covering checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((t for t in argv if not t.startswith("-")), None)
    for name, help_text in _GROUPS.items():
        p = sub.add_parser(name, help=help_text)
        if name == chosen:
            command = importlib.import_module(f"{__package__}.commands.{name}")
            command.add_arguments(p)
            p.set_defaults(func=command.run)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
