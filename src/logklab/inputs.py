"""The CLI's file readers and its argparse parser, which a well-formed
catalog invocation never needs: the pair file with its positivity and
hilbert blocks, the criteria file, and build_parser. Only a hilbert block
loads the dimension models (hilbert).

cli imports this module only for a pair source that is not "catalog:", for
criteria's --file, and where its fast parse leaves argv to argparse. No
module of the package imports cli, which runs as __main__ in a CLI process,
so the command table reaches build_parser as an argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import pairmodel
from .errors import InputError
from .exactnum import _input_rational
from .pairmodel import _POSITIVITY, PairSource, PolarisedPair

if TYPE_CHECKING:
    import argparse

    from .criteria import SingularCriteriaInput
    from .hilbert import HilbertModel
    from .thresholds import PositivityData


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


def _reject_unknown(block: dict, allowed: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise InputError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _parse_positivity_block(block: dict) -> PositivityData:
    from .thresholds import PositivityData

    _reject_unknown(block, {key for key, *_ in _POSITIVITY}, "positivity block")
    return PositivityData(**{field: _input_rational(block[key])
                             for key, field, *_ in _POSITIVITY if key in block})


def _hilbert_model(block: dict, pair: PolarisedPair) -> HilbertModel:
    """The dimension model a hilbert block describes, checked against the pair."""
    from .hilbert import KIND_EXPLICIT, KIND_PRODUCT_P1P1, KIND_PROJECTIVE_SPACE, HilbertModel

    _reject_unknown(block, {"kind", "coefficients", "floor"}, "hilbert block")
    kind = block.get("kind")
    if kind in (KIND_PROJECTIVE_SPACE, KIND_PRODUCT_P1P1):
        _reject_unknown(block, {"kind"}, f"{kind} hilbert block")
    if kind == KIND_PROJECTIVE_SPACE:
        model = HilbertModel.projective_space(pair.dimension)
    elif kind == KIND_PRODUCT_P1P1:
        model = HilbertModel.product_p1p1()
    elif kind == KIND_EXPLICIT:
        if not isinstance(block.get("coefficients"), list):
            raise InputError("explicit hilbert block needs a 'coefficients' list")
        coefficients = [_input_rational(c) for c in block["coefficients"]]
        floor = _input_int(block.get("floor", 0), "hilbert 'floor'")
        # Refused before the conversion, whose work grows faster than the square of the degree.
        degree = max((i for i, a in enumerate(coefficients) if a), default=-1)
        if degree > pair.dimension:
            raise InputError(f"explicit hilbert block has degree {degree}, "
                             f"more than the pair's dimension {pair.dimension}")
        model = HilbertModel.explicit(coefficients, floor)
    else:
        raise InputError(
            f"unknown hilbert kind {kind!r}; expected one of "
            f"{KIND_PROJECTIVE_SPACE}, {KIND_PRODUCT_P1P1}, {KIND_EXPLICIT}"
        )
    return model.check_against(pair)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook: a repeated key is an error, not last-one-wins."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


# Most bytes a pair or criteria file may hold: about four times the largest
# file the other input limits admit, an explicit model of degree
# DIMENSION_LIMIT whose coefficients each hold two 4300-digit integers (4.4 MB).
INPUT_FILE_LIMIT = 2**24


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object held by a UTF-8 file of at most INPUT_FILE_LIMIT
    bytes, of which at most one byte more is read; any failure is an
    InputError."""
    import io
    import json

    try:
        with open(path, "rb") as file:
            data = file.read(INPUT_FILE_LIMIT + 1)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    if len(data) > INPUT_FILE_LIMIT:
        raise InputError(f"{what} {path!r} is larger than {INPUT_FILE_LIMIT} bytes")
    try:
        # Decoded as Path.read_text decodes: UTF-8 with universal newlines.
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # bad UTF-8 or JSON, a repeated key, an integer past the digit limit
        raise InputError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what} {path!r} must hold a JSON object")
    return doc


def load_pair_file(path: str) -> PairSource:
    """Parse a pair JSON file with a strict schema (unknown keys rejected)."""
    doc = _read_json_object(path, "pair file")
    allowed = {"name", "dimension", "L_top", "cX_L", "proportional_x",
               "divisor", "positivity", "hilbert"}
    _reject_unknown(doc, allowed, "pair file")
    for key in ("name", "dimension", "L_top", "cX_L", "divisor"):
        if key not in doc:
            raise InputError(f"pair file {path!r} is missing required key {key!r}")
    if not isinstance(doc["name"], str):
        raise InputError(f"pair file 'name' must be a JSON string, got {doc['name']!r}")
    pair = PolarisedPair(
        name=doc["name"],
        dimension=_input_int(doc["dimension"], "'dimension'"),
        L_top=_input_rational(doc["L_top"]),
        cX_L=_input_rational(doc["cX_L"]),
        proportional_x=(
            _input_rational(doc["proportional_x"]) if "proportional_x" in doc else None
        ),
    )
    div_block = doc["divisor"]
    _reject_unknown(div_block, {"m"}, "divisor block")
    m = pairmodel.multiplicity(_input_int(div_block.get("m"), "divisor block 'm'"))
    positivity = (
        _parse_positivity_block(doc["positivity"]) if "positivity" in doc else None
    )
    model = _hilbert_model(doc["hilbert"], pair) if "hilbert" in doc else None
    return PairSource(pair, m, positivity, model)


def _parse_criteria_file(path: str) -> SingularCriteriaInput:
    """The criteria document: the fields of SingularCriteriaInput, by name."""
    from .criteria import SingularCriteriaInput

    doc = _read_json_object(path, "criteria file")
    _reject_unknown(doc, set(SingularCriteriaInput._fields), "criteria file")
    for key in ("Sbeta", "alpha_beta", "n"):
        if key not in doc:
            raise InputError(f"criteria file is missing required key {key!r}")
    kwargs = {
        "Sbeta": _input_rational(doc["Sbeta"]),
        "alpha_beta": _input_rational(doc["alpha_beta"]),
        "n": _input_int(doc["n"], "criteria key 'n'"),
    }
    if doc.get("bullet1_eta") is not None:
        kwargs["bullet1_eta"] = _input_rational(doc["bullet1_eta"])
    # The asserted facts: the boolean fields, each False unless asserted.
    for flag, default in SingularCriteriaInput._field_defaults.items():
        if default is False and flag in doc:
            if not isinstance(doc[flag], bool):
                raise InputError(f"criteria key {flag!r} must be a boolean")
            kwargs[flag] = doc[flag]
    return SingularCriteriaInput(**kwargs)


def _input_int(value, what: str) -> int:
    """An integer from an input file: a JSON integer, not a bool or a float."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


def build_parser(commands) -> argparse.ArgumentParser:
    """The argparse parser of the command table commands (cli._COMMANDS),
    whose errors raise _UsageError."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(self, message)

        def _check_value(self, action, value):  # the CLI's own text, whatever argparse's
            if action.choices is not None and value not in action.choices:
                raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from "
                                                     f"{', '.join(map(repr, action.choices))})")

    # The top-level usage is fixed, not wrapped to the terminal: argparse
    # versions break the subcommand line differently.
    indent = "\n" + " " * len("usage: logklab ")
    parser = _Parser(
        prog="logklab",
        usage=f"%(prog)s [-h]{indent}{{{','.join(row[0] for row in commands)}}}{indent}...",
        description="Exact-arithmetic log K-stability calculator for polarised pairs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, prog="logklab")
    for name, help_text, handler, pair_input, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        if pair_input is not None:
            p.add_argument("pair", help="pair source: 'catalog:NAME' or a JSON file path")
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(handler=handler, pair_input=pair_input)
    return parser
