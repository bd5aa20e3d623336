"""The CLI's command groups, one module each, and what they share.

Each module chaingroup.commands.<group> holds the group's parse-time size
caps, add_arguments, which adds the group's operations to its parser, and
run, the handler, which imports the library modules it runs. chaingroup.cli
imports the module of the group a call names, and no other. This package
holds what the groups share: the only writer of answers, _answer, with
_verdict and _fields; the input helpers; and the argparse actions that
enforce the caps. Nothing here imports chaingroup.cli: under
`python -m chaingroup.cli` that would compile the entry point a second time.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable

from .. import parse_int, parse_ints


def _answer(lines: Iterable, code: int = 0, **trailer) -> int:
    """Print the body lines as they come, then the trailer; return the exit code.

    The only writer of answers: lines may be a generator, so long listings
    stream, and the trailer fields print in the order given.
    """
    for line in lines:
        print(line)
    print(_fields(**trailer))
    return code


def _verdict(ok: bool, lines: Iterable, **trailer) -> int:
    """The answer to a check: exit code 0 when it holds, 1 when it fails."""
    return _answer(lines, 0 if ok else 1, **trailer)


def _fields(**fields) -> str:
    """key=value pairs: booleans as true/false, tuples as comma lists."""
    out = []
    for key, value in fields.items():
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        out.append(f"{key}={str(value).lower() if isinstance(value, bool) else value}")
    return " ".join(out)


def _ints(text: str, source: str) -> tuple[int, ...]:
    """A comma-separated list of integers. Empty text is the empty list; an
    empty field, as in 4,,4, raises ValueError."""
    return parse_ints(text.split(","), source) if text else ()


def _blocks(text: str) -> list[str]:
    """The blank-line-separated blocks of text, empty ones skipped."""
    return [b for b in text.split("\n\n") if b.strip()]


def _budget(default: int) -> int:
    raw = os.environ.get("CHAINGROUP_BUDGET")
    return default if raw is None else parse_int(raw, "CHAINGROUP_BUDGET")


# File-based subcommands read at most this many characters (bytes, for ASCII
# input). The largest input tier-1 feeds is 8449 characters (an `ln snf`
# matrix past the side cap), perfbench's cli-calls 6383 (`homology extract`),
# and the suites read none.
INPUT_MAX_BYTES = 4 * 1024 * 1024


def _read_input(path: str) -> str:
    """The text of the file at path, or of stdin for '-', refused past
    INPUT_MAX_BYTES characters."""
    if path == "-":
        text = sys.stdin.read(INPUT_MAX_BYTES + 1)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(INPUT_MAX_BYTES + 1)
    if len(text) > INPUT_MAX_BYTES:
        raise ValueError(f"input exceeds {INPUT_MAX_BYTES} characters")
    return text


def _word(n: int, text: str, source: str) -> braids.BraidWord:
    from .. import braids

    return braids.parse_letters(n, parse_ints(text.split(), source))


class _AtMost(argparse.Action):
    """Store an int option, refusing values above const as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value > self.const:
            raise argparse.ArgumentError(self, f"at most {self.const} allowed, got {value}")
        setattr(namespace, self.dest, value)


class _AbsAtMost(_AtMost):
    """Store an int option, refusing values below -const or above const."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < -self.const:
            raise argparse.ArgumentError(self, f"at least {-self.const} allowed, got {value}")
        super().__call__(parser, namespace, value, option_string)
