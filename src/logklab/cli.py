"""Command-line front end: pair ingestion, builtin catalog, reports, curves.

Exit codes: 0 success / criterion satisfied, 2 inconclusive / precondition
failed, 3 input error, 4 internal cross-check failure (never on a correct
build). Output never contains timestamps, so identical invocations produce
byte-identical bytes. Each subcommand's handler returns its exit code and
the pieces of its stdout, and run writes them in one loop inside its error
mapping, so stdout is written only after the subcommand's checks pass:
exits 3 and 4 leave it empty. df-curve's pieces are batches of rows,
computed as they are written, after its end checks.

The closedform, normalcone, thresholds, weightoracle and inputs modules, and
json, are imported inside the functions that use them, so that a process
loads, and without a bytecode cache compiles, only what its subcommand
runs: df and info load the closed form alone, destabilize, critical-c and
df-curve the sign kernel (normalcone) too. inputs holds the pair-file and
criteria-file readers and the argparse parser (inputs.build_parser). A
catalog pair needs no reader, and _fast_parse reads a well-formed argv
straight off the command table, so inputs is loaded only for a pair file,
a criteria file, --help, usage errors and the forms only argparse reads,
such as abbreviated flags; argparse only for the last three. A hypothesis
property checks the fast path against argparse.

No other logklab module imports this one: under `python -m logklab.cli` it
runs as __main__, and an import of logklab.cli would compile and run it a
second time.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import pairmodel
from .errors import (
    InconsistentDataError,
    InputError,
    InternalCheckError,
    LogKLabError,
    PreconditionFailedError,
)
from .exactnum import _input_rational, decimal_string, format_rational, ratio_texts
from .pairmodel import _POSITIVITY, PairSource

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .thresholds import PositivityData, Verdict

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
EXIT_IOERR = 74  # EX_IOERR of sysexits.h: stdout could not be written
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command a closed pipe ended

CATALOG_PREFIX = "catalog:"


def resolve_pair(source: str) -> PairSource:
    """Resolve "catalog:NAME" to its catalog entry, anything else to a JSON file."""
    if source.startswith(CATALOG_PREFIX):
        return pairmodel.catalog_entry(source[len(CATALOG_PREFIX):])
    from . import inputs

    return inputs.load_pair_file(source)


def _merged_positivity(pf: PairSource, ns) -> PositivityData:
    """The pair file's positivity data, with each field a flag sets taken from
    the flag, built through the constructor so that its checks run again."""
    from .thresholds import PositivityData

    base = pf.positivity._asdict() if pf.positivity is not None else {}
    flags = {field: getattr(ns, field) for _, field, *_ in _POSITIVITY}
    return PositivityData(**base | {field: v for field, v in flags.items() if v is not None})


def _field_text(value) -> str:
    """A field value as text: every rational exact through format_rational,
    a tuple as (a, b) and a list as [a, b]."""
    if isinstance(value, Fraction) or type(value) is int:
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        inner = ", ".join(map(_field_text, value))
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    return str(value)


def _table(rows) -> str:
    """(label, value, provenance) rows as a table with a decimal column; a
    str value, such as "n/a", has no decimal."""
    header = f"{'quantity':<34} {'exact':>20}  {'decimal':<18} {'provenance'}"
    lines = [header, "-" * len(header)]
    for label, value, provenance in rows:
        dec = "" if isinstance(value, str) else decimal_string(value)
        lines.append(f"{label:<34} {_field_text(value):>20}  {dec:<18} {provenance}")
    return "".join(f"{line}\n" for line in lines)


def _fields(fields) -> str:
    """One `label: value` line per (label, value) field, skipping None values."""
    return "".join(f"{label}: {_field_text(value)}\n" for label, value in fields
                   if value is not None)


def _verdict_fields(v: Verdict) -> list:
    return [
        ("status", v.status.value), ("claim", v.claim), ("positivity model", v.model),
        ("eta interval", v.eta_interval), ("certificate", v.certificate),
        ("certificate note", v.certificate_note), ("violated", v.violated),
        *(("fact", fact) for fact in v.facts),
    ]


# ----------------------------- subcommands -----------------------------


def _cmd_info(ns) -> tuple[int, Iterable[str]]:
    from . import closedform

    pair, m = ns.source.pair, ns.m
    rows = [("S_1", pairmodel.avg_scalar_s1(pair), "n*cX_L/L_top")]
    if pair.dimension >= 2:
        rows.append(("S_D", pairmodel.avg_scalar_sD(pair, m), pairmodel.sD_provenance(m)))
        if m == 1:
            rows.append(("instability_threshold", closedform.instability_threshold(pair),
                         "S_D/(n(n-1)); smaller angles destabilised by the normal-cone family"))
        else:
            rows.append(("instability_threshold", "n/a",
                         "normal-cone family only asserted for m = 1"))
    else:
        rows.append(("S_D", "n/a", "undefined for n = 1"))
    return EXIT_OK, [_fields([
        ("pair", f"{pair.name} (n={pair.dimension}, L^n={format_rational(pair.L_top)}, "
                 f"c1(X).L^(n-1)={format_rational(pair.cX_L)}, D in |{m}L|)"),
        ("findings", ", ".join(pairmodel.validate_pair(pair)) or "none"),
    ]), _table(rows)]


def _cmd_scalar(ns) -> tuple[int, Iterable[str]]:
    report = pairmodel.avg_scalar_sbeta(ns.source.pair, ns.m, ns.beta)
    rows = [
        ("beta", report.beta, "evaluation angle"),
        ("S_1", report.S1, "n*cX_L/L_top"),
        ("S_D", report.SD if report.SD is not None else "n/a",
         pairmodel.sD_provenance(ns.m) if report.SD is not None else "undefined for n = 1"),
        ("S_beta", report.Sbeta, "S_1 - m*n*(1-beta)"),
        ("mu", report.mu, "S_beta/n"),
    ]
    return EXIT_OK, [_table(rows)]


def _cmd_thresholds(ns) -> tuple[int, Iterable[str]]:
    from . import thresholds

    pair, pos, m = ns.source.pair, ns.positivity, ns.m
    rows = [("beta_u", thresholds.beta_u(pair, pos, m), "critical cone angle from alpha data")]
    for beta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        label = f"alpha_beta_lower(beta={format_rational(beta)})"
        try:
            rows.append((label, thresholds.alpha_beta_lower_bound(pos, m, beta),
                         "min{m*beta, alpha_L, m*alpha_LD}"))
        except InconsistentDataError:  # an override above m*beta, which may hold at --beta
            rows.append((label, "n/a", "alpha_beta override exceeds m*beta"))
    thresholds.alpha_beta_lower_bound(pos, m, ns.beta)  # refuses an override above m*--beta
    rows.append((f"min_multiplicity_eta0(beta={format_rational(ns.beta)})",
                 thresholds.min_multiplicity_eta0(pair, pos, ns.beta),
                 "least m with both eta=0 conditions strict"))
    return EXIT_OK, [_table(rows)]


def _cmd_window(ns) -> tuple[int, Iterable[str]]:
    from . import thresholds

    window = thresholds.angle_window(ns.source.pair, ns.positivity, ns.m, ns.case)
    return EXIT_INCONCLUSIVE if window.empty else EXIT_OK, [_fields([
        ("claim", window.claim.value),
        ("window", window.render()),
        ("note", "hypotheses hold but the window is empty; nothing is certified"
         if window.empty else None),
    ])]


def _cmd_verdict(ns) -> tuple[int, Iterable[str]]:
    """eta and entropy: the subcommand's verdict at (pair, positivity, m, beta)."""
    from . import thresholds

    verdict_of = {"eta": thresholds.eta_feasibility,
                  "entropy": thresholds.entropy_threshold_check}[ns.cmd]
    verdict = verdict_of(ns.source.pair, ns.positivity, ns.m, ns.beta)
    satisfied = verdict.status is thresholds.VerdictStatus.CRITERION_SATISFIED
    return EXIT_OK if satisfied else EXIT_INCONCLUSIVE, [_fields(_verdict_fields(verdict))]


def _cmd_df(ns) -> tuple[int, Iterable[str]]:
    from . import closedform

    coeffs, report = closedform.df_checked(ns.source.pair, ns.c, ns.beta)
    rows = [
        ("a0", coeffs.a0, "leading dimension coefficient"),
        ("a1", coeffs.a1, "subleading dimension coefficient"),
        ("b0", coeffs.b0, "leading weight coefficient"),
        ("b1", coeffs.b1, "subleading weight coefficient"),
        ("a0_tilde", coeffs.a0_tilde, "divisor dimension leading coefficient"),
        ("b0_tilde", coeffs.b0_tilde, "divisor weight leading coefficient"),
        ("DF(closed form)", report.df, "prefactor * inner factor"),
        ("DF(coefficient formula)", report.df,
         "2(a1 b0 - a0 b1)/a0 + (1-beta)(a0 b0~ - a0~ b0)/a0"),
        ("inner_factor", report.inner_factor, "beta + (S_D/(n-1)) g(c)"),
        ("positive_prefactor", report.positive_prefactor, "n a0 (1-(1-c)^(n+1))/(n+1)"),
        ("J^NA", report.jna, "c - (1-(1-c)^(n+1))/(n+1) = -b0/a0"),
    ]
    return EXIT_OK, [_table(rows), "cross-check: both DF paths agree exactly\n"]


def _cmd_df_curve(ns) -> tuple[int, Iterable[str]]:
    from . import normalcone

    columns = normalcone.GRID_FIELDS
    if ns.format == "csv":
        # No field needs CSV quoting: rationals and decimals hold no comma,
        # quote or newline.
        head = ",".join([*columns, *(f"{name}_decimal" for name in columns)]) + "\n"
        row, between, tail, digits = ",".join(["%s"] * 8) + "\n", "", "", 12
    else:
        # The bytes of json.dumps(rows, indent=2): the keys are fixed and every
        # value is [-0-9/] text, so nothing needs escaping.
        head, between, tail, digits = "[\n  ", ",\n  ", "\n]\n", 0
        row = "{\n%s\n  }" % ",\n".join(f'    "{name}": "%s"' for name in columns)
    batches = normalcone.curve_rows(ns.source.pair, ns.beta, ns.steps)  # ends checked first

    def rows(batch) -> list[str]:
        texts, decimals = zip(*(ratio_texts(nums, dens, digits) for nums, dens in batch))
        return list(map(row.__mod__, zip(*texts, *decimals) if digits else zip(*texts)))

    # One piece, so one write, per batch of rows, not per row: with
    # PYTHONUNBUFFERED set, each write is a system call. Memory stays
    # bounded by the batch.
    def pieces():
        lead = head
        for batch in batches:
            yield lead + between.join(rows(batch))
            lead = between
        yield tail

    return EXIT_OK, pieces()


def _cmd_destabilize(ns) -> tuple[int, Iterable[str]]:
    from . import closedform, normalcone

    pair = ns.source.pair
    c, df = normalcone.find_destabilizer(pair, ns.beta)
    threshold = closedform.instability_threshold(pair)
    return EXIT_OK, [_fields([
        ("instability threshold", threshold),
        ("witness c", c),
        (f"DF(c, beta={format_rational(ns.beta)}) = {format_rational(df)} < 0",
         "pair is log K-unstable at this angle"),
    ])]


def _cmd_critical_c(ns) -> tuple[int, Iterable[str]]:
    from . import normalcone

    bracket = normalcone.critical_c(ns.source.pair, ns.beta, ns.tol)
    if bracket.all_destabilizing:
        return EXIT_OK, [
            "every c in (0, 1) destabilises at this angle (beta <= 0); sentinel (0, 0)\n"]
    return EXIT_OK, [_fields([
        ("isolating interval", [bracket.lo, bracket.hi]),
        ("width", f"{format_rational(bracket.hi - bracket.lo)} (<= tol {format_rational(ns.tol)})"),
        ("inner factor at lo", bracket.lo_inner),
        ("inner factor at hi", bracket.hi_inner),
    ])]


def _cmd_oracle(ns) -> tuple[int, Iterable[str]]:
    import json

    from . import weightoracle

    report = weightoracle.oracle_report(ns.source.pair, ns.source.model, ns.c, ns.kmax)
    return EXIT_OK, [json.dumps(report, indent=2) + "\n"]


def _cmd_criteria(ns) -> tuple[int, Iterable[str]]:
    from . import inputs, thresholds

    data = inputs._parse_criteria_file(ns.file)
    verdicts = thresholds.singular_criteria(data)
    if not verdicts:
        return EXIT_INCONCLUSIVE, ["no criterion applicable: no distinguishing assertion present\n"]
    satisfied = any(v.status is thresholds.VerdictStatus.CRITERION_SATISFIED for v in verdicts)
    return EXIT_OK if satisfied else EXIT_INCONCLUSIVE, [
        "\n".join(_fields(_verdict_fields(v)) for v in verdicts)]


def _cmd_catalog(ns) -> tuple[int, Iterable[str]]:
    if ns.action == "list":
        if ns.name is not None:
            raise InputError(f"catalog list takes no pair name, got {ns.name!r}")
        return EXIT_OK, [f"{name}\n" for name in pairmodel.CATALOG]
    if ns.name is None:
        raise InputError("catalog show needs a pair name")
    entry = pairmodel.catalog_entry(ns.name)
    pair, model = entry.pair, entry.model
    return EXIT_OK, [_fields([
        ("name", pair.name), ("dimension", pair.dimension), ("L_top", pair.L_top),
        ("cX_L", pair.cX_L),
        ("proportional_x", "none" if pair.proportional_x is None else pair.proportional_x),
        ("divisor multiplicity", entry.m),
        ("dimension model",
         "none (supply alphas and bounds by hand)" if model is None else model.kind),
    ])]


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

# The pair input of a subcommand: any pair, or only one with D in |L|.
_ANY_PAIR, _UNIT_PAIR = "any", "m = 1"

# One row per subcommand, in --help order: (name, help, handler, pair input
# or None, arguments after the pair positional).
_COMMANDS = (
    ("info", "pair findings, scalar averages, instability threshold", _cmd_info, _ANY_PAIR, ()),
    ("scalar", "scalar averages at a cone angle", _cmd_scalar, _ANY_PAIR, (
        _BETA, ("--m", {"type": _int_arg, "help": "override divisor multiplicity"}))),
    ("thresholds", "beta_u, alpha_beta lower bounds, minimal multiplicity", _cmd_thresholds,
     _ANY_PAIR, (
        _M, ("--beta", {"type": _rational_arg, "default": Fraction(1, 2),
                        "help": "angle for the minimal-multiplicity row (default 1/2)"}),
        *_POSITIVITY_FLAGS)),
    ("window", "certified cone-angle window", _cmd_window, _ANY_PAIR, (
        _M, ("--case", {"choices": ["large", "given", "uniform"], "required": True}),
        *_POSITIVITY_FLAGS)),
    ("eta", "eta-feasibility verdict with certificate", _cmd_verdict, _ANY_PAIR,
     (_M, _BETA, *_POSITIVITY_FLAGS)),
    ("entropy", "entropy-threshold comparison verdict", _cmd_verdict, _ANY_PAIR,
     (_M, _BETA, *_POSITIVITY_FLAGS)),
    ("df", "log Donaldson-Futaki invariant via both paths", _cmd_df, _UNIT_PAIR, (_C, _BETA)),
    ("df-curve", "DF grid over c for fixed beta", _cmd_df_curve, _UNIT_PAIR, (
        _BETA, ("--steps", {"type": _int_arg, "required": True}),
        ("--format", {"choices": ["csv", "json"], "default": "csv"}))),
    ("destabilize", "find c with DF < 0 at this angle", _cmd_destabilize, _UNIT_PAIR, (_BETA,)),
    ("critical-c", "isolate the root of the inner factor", _cmd_critical_c, _UNIT_PAIR, (
        _BETA, ("--tol", {"type": _rational_arg, "required": True}))),
    ("oracle", "brute-force coefficient cross-check report", _cmd_oracle, _UNIT_PAIR, (
        _C, ("--kmax", {"type": _int_arg, "default": 60,
                        "help": "sample listing bound for the report (default 60)"}))),
    ("criteria", "singular-pair criteria from asserted facts", _cmd_criteria, None, (
        ("--file", {"required": True, "help": "JSON document mirroring the criteria input"}),)),
    ("catalog", "builtin pairs", _cmd_catalog, None, (
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

    Before a handler runs, its inputs are resolved once, in one order: the
    pair source (ns.source), the refusal of m != 1 where D in |L| is needed,
    the positivity data merged from the file and the flags (ns.positivity),
    then the divisor multiplicity, --m if given, else the pair's (ns.m),
    which each handler's first library call checks. Then the handler's
    pieces are written, inside the error mapping, so an error a lazy piece
    raises still maps to its exit code.
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
    try:
        try:
            if ns.pair_input is not None:
                ns.source = resolve_pair(ns.pair)
                if ns.pair_input == _UNIT_PAIR and ns.source.m != 1:
                    raise InputError(f"{ns.cmd} needs a pair with divisor multiplicity m = 1")
                if hasattr(ns, "lam"):  # the subcommands that take the positivity flags
                    ns.positivity = _merged_positivity(ns.source, ns)
                if getattr(ns, "m", None) is None:
                    ns.m = ns.source.m
            code, pieces = ns.handler(ns)
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
