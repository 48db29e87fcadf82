"""Command-line front end: the command table, argv parsing, pair
resolution, and the exit-code mapping.

Exit codes: 0 success / criterion satisfied, 2 inconclusive / precondition
failed, 3 input error, 4 internal cross-check failure (never on a correct
build). Output never contains timestamps, so identical invocations produce
byte-identical bytes. Each subcommand's handler returns its exit code and
the pieces of its stdout, and run writes them in one loop inside its error
mapping, so stdout is written only after the subcommand's checks pass:
exits 3 and 4 leave it empty. df-curve's pieces are batches of rows,
computed as they are written, after its end checks of both values and
texts.

Each handler lives in a module that only its own subcommands load, and
_COMMANDS names it by module and function, so that a process loads, and
without a bytecode cache compiles, only what its subcommand runs: run
imports that one module. info's handler is in info, scalar's and catalog's
in scalar, df's in df, destabilize's and critical-c's in normalcone,
df-curve's in curve, oracle's in weightoracle, thresholds', window's, eta's
and entropy's in thresholds, and criteria's in criteria. The text of their
tables and fields is tables', which neither df-curve nor oracle loads, and
the verdict form that thresholds and criteria share is verdict's, so
criteria loads no thresholds. So df and info load the closed form,
destabilize and critical-c the sign kernel (kernel) and its searches
(normalcone) too, df-curve the kernel and its grid and row text (curve), no
search, and only df and oracle the coefficient path (expansion); df's
second DF path is df's own. The dimension models (hilbert) load only for
oracle, whose catalog pair resolve_pair gives its model, for catalog show,
and for a pair file's hilbert block. oracle writes its JSON report without
the json module.
inputs holds the pair-file and criteria-file readers and the
argparse parser (inputs.build_parser). A catalog pair needs no reader, and
_fast_parse reads a well-formed argv straight off the command table, so
inputs is loaded only for a pair file, a criteria file, --help, usage
errors and the forms only argparse reads, such as abbreviated flags;
argparse only for the last three. A hypothesis property checks the fast
path against argparse.

No other logklab module imports this one: under `python -m logklab.cli` it
runs as __main__, and an import of logklab.cli would compile and run it a
second time.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import pairmodel
from .errors import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    InputError,
    InternalCheckError,
    LogKLabError,
    PreconditionFailedError,
)
from .exactnum import _input_rational
from .pairmodel import _POSITIVITY, PairSource

# The exit codes past the handlers' own two, EXIT_OK and EXIT_INCONCLUSIVE.
EXIT_INPUT = 3
EXIT_INTERNAL = 4
EXIT_IOERR = 74  # EX_IOERR of sysexits.h: stdout could not be written
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command a closed pipe ended

CATALOG_PREFIX = "catalog:"


def resolve_pair(source: str, model: bool = False) -> PairSource:
    """Resolve "catalog:NAME" to its catalog entry, anything else to a JSON file.

    A catalog entry holds no dimension model; with model, it is given its
    own from hilbert.CATALOG_MODELS, or None. A pair file's hilbert block is
    read either way."""
    if source.startswith(CATALOG_PREFIX):
        name = source[len(CATALOG_PREFIX):]
        entry = pairmodel.catalog_entry(name)
        if model:
            from .hilbert import CATALOG_MODELS

            entry = entry._replace(model=CATALOG_MODELS.get(name))
        return entry
    from . import inputs

    return inputs.load_pair_file(source)


# ----------------------------- parser wiring -----------------------------


def _rational_arg(text: str) -> Fraction:
    try:
        return _input_rational(text)
    except InputError as exc:
        import argparse

        raise argparse.ArgumentTypeError(str(exc))


def _int_arg(text: str) -> int:
    """An integer flag by parse_rational's rule: ASCII digits with an optional
    sign, so int()'s underscores and non-ASCII digits are refused."""
    try:
        if "/" not in text:
            return int(_input_rational(text))
    except InputError:
        pass
    import argparse

    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# Arguments as (name or flag, add_argument options). Those shared by several
# subcommands are declared once here.
_BETA = ("--beta", {"type": _rational_arg, "required": True})
_C = ("--c", {"type": _rational_arg, "required": True})
_M = ("--m", {"type": _int_arg})
_POSITIVITY_FLAGS = tuple(
    (flag, {"dest": field, "metavar": metavar, "type": _rational_arg, "help": help_text})
    for _, field, flag, metavar, help_text in _POSITIVITY)

# The pair input of a subcommand: any pair, only one with D in |L|, or one
# with D in |L| and, for a catalog pair, its dimension model.
_ANY_PAIR, _UNIT_PAIR, _MODEL_PAIR = "any", "m = 1", "m = 1, with its model"

# One row per subcommand, in --help order: (name, help, handler as (module,
# function), pair input or None, arguments after the pair positional).
_COMMANDS = (
    ("info", "pair findings, scalar averages, instability threshold",
     ("info", "_cmd_info"), _ANY_PAIR, ()),
    ("scalar", "scalar averages at a cone angle", ("scalar", "_cmd_scalar"), _ANY_PAIR, (
        _BETA, ("--m", {"type": _int_arg, "help": "override divisor multiplicity"}))),
    ("thresholds", "beta_u, alpha_beta lower bounds, minimal multiplicity",
     ("thresholds", "_cmd_thresholds"),
     _ANY_PAIR, (
        _M, ("--beta", {"type": _rational_arg, "default": Fraction(1, 2),
                        "help": "angle for the minimal-multiplicity row (default 1/2)"}),
        *_POSITIVITY_FLAGS)),
    ("window", "certified cone-angle window", ("thresholds", "_cmd_window"), _ANY_PAIR, (
        _M, ("--case", {"choices": ["large", "given", "uniform"], "required": True}),
        *_POSITIVITY_FLAGS)),
    ("eta", "eta-feasibility verdict with certificate", ("thresholds", "_cmd_verdict"), _ANY_PAIR,
     (_M, _BETA, *_POSITIVITY_FLAGS)),
    ("entropy", "entropy-threshold comparison verdict", ("thresholds", "_cmd_verdict"), _ANY_PAIR,
     (_M, _BETA, *_POSITIVITY_FLAGS)),
    ("df", "log Donaldson-Futaki invariant via both paths", ("df", "_cmd_df"), _UNIT_PAIR, (_C, _BETA)),
    ("df-curve", "DF grid over c for fixed beta", ("curve", "_cmd_df_curve"), _UNIT_PAIR, (
        _BETA, ("--steps", {"type": _int_arg, "required": True}),
        ("--format", {"choices": ["csv", "json"], "default": "csv"}))),
    ("destabilize", "find c with DF < 0 at this angle",
     ("normalcone", "_cmd_destabilize"), _UNIT_PAIR, (_BETA,)),
    ("critical-c", "isolate the root of the inner factor",
     ("normalcone", "_cmd_critical_c"), _UNIT_PAIR, (
        _BETA, ("--tol", {"type": _rational_arg, "required": True}))),
    ("oracle", "brute-force coefficient cross-check report",
     ("weightoracle", "_cmd_oracle"), _MODEL_PAIR, (
        _C, ("--kmax", {"type": _int_arg, "default": 60,
                        "help": "sample listing bound for the report (default 60)"}))),
    ("criteria", "singular-pair criteria from asserted facts",
     ("criteria", "_cmd_criteria"), None, (
        ("--file", {"required": True, "help": "JSON document mirroring the criteria input"}),)),
    ("catalog", "builtin pairs", ("scalar", "_cmd_catalog"), None, (
        ("action", {"choices": ["list", "show"]}), ("name", {"nargs": "?", "default": None}))),
)


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace inputs.build_parser(_COMMANDS).parse_args(argv)
    returns, read straight off _COMMANDS, or None where argparse must decide.

    It reads an exact subcommand name, then exact long flags, each once and
    followed by a value that does not start with "-", and positionals in
    any position. Anything else gives None: -h, an abbreviation, --flag=value,
    a repeated flag, a dash-leading value, a missing required argument, an
    extra positional, a value outside choices or refused by its type.
    """
    row = next((row for row in _COMMANDS if argv[:1] == [row[0]]), None)
    if row is None:
        return None
    name, _, handler, pair_input, arguments = row
    flags = {arg: options for arg, options in arguments if arg.startswith("-")}
    positionals = [(arg, options) for arg, options in arguments if arg not in flags]
    if pair_input is not None:
        positionals.insert(0, ("pair", {}))
    given, words = {}, []
    rest = iter(argv[1:])
    for word in rest:
        if not word.startswith("-"):
            words.append(word)
        elif word in flags and word not in given:
            value = next(rest, "-")  # "-" stands for the missing value of a last flag
            if value.startswith("-"):
                return None
            given[word] = value
        else:
            return None
    if len(words) > len(positionals):
        return None
    given.update(zip((arg for arg, _ in positionals), words))
    values = {"cmd": name, "handler": handler, "pair_input": pair_input}
    for arg, options in (*positionals, *flags.items()):
        dest = options.get("dest", arg.lstrip("-").replace("-", "_"))
        if arg not in given:
            if options.get("required", not arg.startswith("-") and options.get("nargs") != "?"):
                return None
            values[dest] = options.get("default")
            continue
        try:
            value = options.get("type", str)(given[arg])
        except Exception:  # argparse converts it again and reports the error
            return None
        if value not in options.get("choices", (value,)):
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def _print_error(text: str) -> None:
    """Print text to stderr. An unwritable stderr loses the text but does not
    change the exit code."""
    try:
        print(text, file=sys.stderr)
    except OSError:
        pass


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code.

    The handler's module is imported first. Before the handler runs, its
    inputs are resolved once, in one order: the pair source (ns.source),
    with its dimension model for oracle, the refusal of m != 1 where D in
    |L| is needed, the positivity data merged from the file and the flags
    (ns.positivity), then the divisor multiplicity, --m if given, else the
    pair's (ns.m), which each handler's first library call checks. Then the
    handler's pieces are written, inside the error mapping, so an error a
    lazy piece raises still maps to its exit code.
    """
    ns = _fast_parse(argv)
    if ns is None:
        from . import inputs

        try:
            ns = inputs.build_parser(_COMMANDS).parse_args(argv)
        except inputs._UsageError as exc:
            _print_error(f"{exc.parser.format_usage()}error: {exc}")
            return EXIT_INPUT
        except SystemExit as exc:  # --help and friends
            return int(exc.code or 0)
    module, name = ns.handler
    # `from .module import name`, as the import statement runs it, so that
    # -X importtime reports the module.
    handler = getattr(__import__(module, globals(), None, (name,), 1), name)
    try:
        try:
            if ns.pair_input is not None:
                ns.source = resolve_pair(ns.pair, ns.pair_input == _MODEL_PAIR)
                if ns.pair_input != _ANY_PAIR and ns.source.m != 1:
                    raise InputError(f"{ns.cmd} needs a pair with divisor multiplicity m = 1")
                if hasattr(ns, "lam"):  # the subcommands that take the positivity flags
                    from .thresholds import _merged_positivity

                    ns.positivity = _merged_positivity(ns.source, ns)
                if getattr(ns, "m", None) is None:
                    ns.m = ns.source.m
            code, pieces = handler(ns)
        except PreconditionFailedError as exc:
            code, pieces = EXIT_INCONCLUSIVE, [f"PreconditionFailed: {exc}\n"]
        for piece in pieces:
            sys.stdout.write(piece)
        return code
    except InputError as exc:
        _print_error(f"input error: {exc}")
        return EXIT_INPUT
    except InternalCheckError as exc:
        _print_error(f"internal cross-check failure: {exc}")
        return EXIT_INTERNAL
    except LogKLabError as exc:
        _print_error(f"error: {exc}")
        return EXIT_INPUT


def main() -> None:
    """Run sys.argv, flush both streams, and end the process with os._exit:
    nothing needs the interpreter's teardown, which costs 6-11 ms a process."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early
        code = EXIT_BROKEN_PIPE
    except OSError as exc:  # stdout cannot take the output, on a full disk say
        _print_error(f"error: cannot write output: {exc}")
        code = EXIT_IOERR
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    main()
