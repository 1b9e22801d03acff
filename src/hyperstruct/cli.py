"""Command-line front end over canonical documents.

Exit codes: 0 = success or passing check, 1 = a check failed (the report
says why), 2 = input error. Reports are deterministic — identical inputs
produce identical bytes — and result documents are written atomically.

A process loads only what its own command runs. A plain command line
(argv[0] a command, its positionals, then each flag once in full with a
value its type and choices accept) is read straight from COMMANDS, and
argparse never loads. Anything else (help, abbreviations, --flag=value, a
usage error) goes to argparse: when argv[0] names a command, main builds
that command's subparser alone, and otherwise the full parser, so help,
usage lines and errors read the same either way and argparse writes all
of them. The command's body is run(args) in hyperstruct.commands.<name>,
which imports the library modules it runs. Reading a document compiles the
tower reader, and a payload section's module (topology, states or catelem,
which hold that section's codec) only when the document carries the
section; only --out compiles the tower writer and loads tempfile and
pathlib. validate alone compiles the tower laws.

A command process ends in run_process, which both `python -m
hyperstruct.cli` and the installed `hyperstruct` script call: it pauses
the cyclic garbage collector, runs main, flushes stdout and stderr, and
ends with os._exit(code), skipping the module teardown and final garbage
collection of an interpreter about to die. A stdout that cannot take all
of the output, a pipe whose reader leaves mid-write included, is an input
error there (exit 2, `cannot write <stdout>: <reason>` on stderr). main
itself returns the exit code, never exits and leaves the collector as it
found it, so tests and an in-process caller (the benchmark's replay) can
run many commands in one interpreter.
"""
from __future__ import annotations

import errno
import gc
import io
import os
import sys
from types import SimpleNamespace

from .errors import HyperstructError, NotComposable, NotGluable

#: Errors that mean "the check failed" rather than "the input is broken".
CHECK_FAILURES = (NotComposable, NotGluable)

_INPUT = ("input", {})
_OUT = ("--out", {})
_MAX_DIM = ("--max-dim", {"type": int, "default": 2})

#: Each command's help and its arguments, in the order --help lists them. An
#: argument is its name or flag with add_argument's keywords; a list of them
#: is a mutually exclusive group.
COMMANDS = {
    "validate": ("check the tower laws of a document", [_INPUT]),
    "install": (
        "build a tower from a relation, hypergraph, complex or branching list",
        [
            ("kind", {"choices": ["relation", "hypergraph", "simplicial", "brunnian"]}),
            ("input", {"nargs": "?", "help": "JSON payload (not used by brunnian)"}),
            ("--branching", {"help": "comma-separated block sizes, e.g. 3,3"}),
            ("--graded", {"action": "store_true", "help": "stack simplices as bonds of their faces"}),
            _OUT,
        ],
    ),
    "compose": (
        "glue two bonds compatible at a probe level",
        [
            _INPUT,
            ("--a", {"required": True, "help": "bond reference level:id"}),
            ("--b", {"required": True, "help": "bond reference level:id"}),
            ("--p", {"type": int, "required": True, "help": "probe level"}),
            ("--mode", {"choices": ["strict", "weak"], "default": "strict"}),
            ("--combiner", {"help": "union | disjoint-union | tensor-pairs"}),
            ("--id", {"required": True, "help": "identifier for the composite"}),
            _OUT,
        ],
    ),
    "fuse": (
        "weak-mode gluing, logged with its level signature",
        [
            _INPUT,
            ("--a", {"required": True}),
            ("--b", {"required": True}),
            ("--k", {"type": int, "required": True, "help": "gluing level"}),
            ("--combiner", {}),
            ("--id", {"required": True}),
            _OUT,
        ],
    ),
    "topology-check": (
        "check the covering axioms of the document's topology",
        [
            _INPUT,
            ("--level", {"type": int}),
            [("--exhaustive", {"action": "store_true"}), ("--sampled", {"type": int, "metavar": "SEED"})],
        ],
    ),
    "globalize": ("fold base states up to the top of the tower", [_INPUT, _OUT]),
    "localize": ("distribute top states down the tower", [_INPUT, _OUT]),
    "emergent": (
        "tokens at a union not produced by the combiner",
        [
            _INPUT,
            ("--level", {"type": int, "required": True}),
            ("--s1", {"required": True, "help": "comma-separated element ids"}),
            ("--s2", {"required": True}),
            ("--combiner", {"default": "union"}),
        ],
    ),
    "nerve": ("composable chains of the document's category", [_INPUT, _MAX_DIM, _OUT]),
    "betti": ("GF(2) homology ranks of simplicial data or a category's nerve", [_INPUT, _MAX_DIM]),
    "brunnian": ("per-level counts and the Brunnian nesting order", [_INPUT]),
}


def build_parser(command: str | None = None):
    """The full parser, or, given a command, the parser with that command's subparser alone.

    The lone subparser's parent names every command in its metavar, so its
    usage lines match the full parser's. The full parser leaves the metavar
    unset: argparse names the argument by its metavar in its errors.
    """
    import argparse

    p = argparse.ArgumentParser(prog="hyperstruct", description="Level towers of bonds: build, check, fold, measure.")
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else COMMANDS:
        help_text, arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for arg in arguments:
            group = sp.add_mutually_exclusive_group() if isinstance(arg, list) else sp
            for flag, kwargs in arg if isinstance(arg, list) else [arg]:
                group.add_argument(flag, **kwargs)
    return p


def _value(kwargs: dict, token: str):
    """token as argparse stores it for an argument with these keywords, or
    None if argparse would refuse it or might read it as a flag."""
    if token.startswith("-"):
        return None
    try:
        value = kwargs.get("type", str)(token)
    except ValueError:
        return None
    return value if value in kwargs.get("choices", [value]) else None


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """argparse's values for a plain command line, read from COMMANDS, or None.

    Plain means: argv[0] names a command, its positionals come first, then
    each flag once, spelled in full, its value not starting with "-" and
    accepted by the flag's type and choices; every required flag is present
    and no exclusive group has two members set. Any other argv is argparse's
    to read, refuse or answer with help.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    values = {"command": argv[0]}
    positionals, flags, groups = [], {}, []
    for arg in COMMANDS[argv[0]][1]:
        if isinstance(arg, list):
            groups.append({flag for flag, _ in arg})
        for name, kwargs in arg if isinstance(arg, list) else [arg]:
            dest = name.lstrip("-").replace("-", "_")
            values[dest] = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
            if name.startswith("-"):
                flags[name] = dest, kwargs
            else:
                positionals.append((name, kwargs))
    n = next((i for i, token in enumerate(argv[1:]) if token.startswith("-")), len(argv) - 1)
    if not sum(kwargs.get("nargs") != "?" for _, kwargs in positionals) <= n <= len(positionals):
        return None
    for (name, kwargs), token in zip(positionals, argv[1 : 1 + n]):
        values[name] = _value(kwargs, token)
        if values[name] is None:
            return None
    seen = set()
    tokens = iter(argv[1 + n :])
    for flag in tokens:
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        dest, kwargs = flags[flag]
        values[dest] = True if kwargs.get("action") == "store_true" else _value(kwargs, next(tokens, "-"))
        if values[dest] is None:
            return None
    if any(kwargs.get("required") and flag not in seen for flag, (_, kwargs) in flags.items()):
        return None
    if any(len(group & seen) > 1 for group in groups):
        return None
    return SimpleNamespace(**values)


def _command(name: str):
    """The module that runs a command: hyperstruct.commands.<name>, "-" read as "_".

    Imported by __import__, which -X importtime reports (importlib.import_module is not)."""
    return __import__(f"{__package__}.commands.{name.replace('-', '_')}", fromlist=["run"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return _command(args.command).run(args)
    except HyperstructError as e:
        sys.stdout.write(f"error: {e.kind}\n{e.message}\n")
        return 1 if isinstance(e, CHECK_FAILURES) else 2


class _Stdout(io.RawIOBase):
    """Descriptor 1, each write taking every byte or raising. A pipe whose
    reader leaves takes part of a large write; the standard stdout's text
    layer drops that short count, while writing the rest raises."""

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        view = memoryview(b)
        while view:
            view = view[os.write(1, view) :]
        return len(b)


def run_process() -> None:
    """Run main, the collector paused, as the whole life of a command process, then end it with os._exit.

    Both `python -m hyperstruct.cli` and the installed `hyperstruct` script
    come here. The process flushes stdout and stderr itself and skips the
    interpreter's teardown, which would only free what the dying process
    holds. A stdout that cannot take the output, closed at start-up or
    failing a write or the final flush (_Stdout makes a short write fail),
    ends the process with exit 2 and `error: SchemaError` / `cannot write
    <stdout>: <reason>` on stderr.
    Commands turn their own file errors into HyperstructErrors, so an
    OSError that reaches this point came from stdout. argparse's SystemExit
    (--help, a usage error) and any other exception take the normal exit.
    """
    try:
        if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        out = sys.stdout
        sys.stdout = io.TextIOWrapper(_Stdout(), out.encoding, out.errors, line_buffering=out.line_buffering)
        gc.disable()  # the few cycles a command leaves die with the process
        code = main()
        sys.stdout.flush()
    except OSError as e:
        sys.stderr.write(f"error: SchemaError\ncannot write <stdout>: {e.strerror}\n")
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run_process()
