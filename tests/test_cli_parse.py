"""The fast argv reader of cli.run against argparse.

cli._fast_parse reads a well-formed argv straight off cli._COMMANDS and
returns None for everything else, which inputs.build_parser's argparse then
reads. So it must return either None or exactly argparse's namespace, and
None wherever argparse refuses the argv.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logklab import cli, inputs

# Values by argument type: _GOOD ones pass it, _BAD ones do not, and none of
# either starts with "-".
_GOOD = {cli._rational_arg: ["1/2", "3", "0", "7/3", "+2", "2/4", " -1/3"],
         cli._int_arg: ["4", "0", "60", "+3", "1"],
         None: ["catalog:P2-line", "pair.json", "x y", ""]}
_BAD = {cli._rational_arg: ["x", "1/0", "1_0", "", "1/2/3"],
        cli._int_arg: ["1/2", "x", "1_0", "٣", ""],
        None: []}
_DASHED = ["-1", "-1/3", "-", "--beta", "-h", "--", "-x y"]
_SPECIALS = ["-h", "--help", "--", "--nope", "-", "extra"]


@st.composite
def argvs(draw):
    """(argv, clean) for one _COMMANDS row: flags in any order, positionals
    between them, and in half the draws abbreviations, = forms, repeats,
    missing and extra arguments, bad and dash-leading values, -h and --.
    clean: the argv has none of these."""
    wild = draw(st.booleans())

    def pick(tame: list, odd: list):  # in a wild draw, odd one time in four
        return draw(st.sampled_from(odd if wild and odd and draw(st.integers(0, 3)) == 0
                                    else tame))

    def value(options) -> tuple[str, bool]:
        good = list(options.get("choices", _GOOD[options.get("type")]))
        bad = ["LIST", "xml"] if "choices" in options else _BAD[options.get("type")]
        text = draw(st.sampled_from(pick([good], [bad or good, _DASHED])))
        return text, text in good

    name, _, _, pair_input, arguments = draw(st.sampled_from(cli._COMMANDS))
    command = pick([name], [name[:-1], "--help"])
    clean = command == name
    slots = [("pair", {})] if pair_input is not None else []
    slots += [arg for arg in arguments if not arg[0].startswith("-")]
    pieces = []
    for flag, options in arguments:
        if not flag.startswith("-"):
            continue
        times = pick([1] if options.get("required") else [0, 1], [0, 2])
        clean &= times == 1 or not options.get("required") and times == 0
        for _ in range(times):
            text, ok = value(options)
            form = pick(["exact"], ["abbrev", "equals"])
            clean &= ok and form == "exact"
            if form == "equals":
                pieces.append([f"{flag}={text}"])
            elif form == "abbrev":
                pieces.append([flag[:draw(st.integers(3, len(flag)))], text])
            else:
                pieces.append([flag, text])
    required = sum(options.get("nargs") != "?" for _, options in slots)
    count = pick(list(range(required, len(slots) + 1)),
                 [k for k in (required - 1, len(slots) + 1) if k >= 0])
    words = []
    for i in range(count):
        text, ok = value(slots[i][1]) if i < len(slots) else ("extra", False)
        clean &= ok
        words.append(text)
    specials = pick([[]], [[special] for special in _SPECIALS])
    clean &= required <= count <= len(slots) and not specials
    pieces = draw(st.permutations(pieces + [[w] for w in specials] + [None] * len(words)))
    # The positional words keep their order, at the places the shuffle gave them.
    it = iter(words)
    argv = [command] + [word for piece in pieces for word in (piece or [next(it)])]
    return argv, clean


def _argparse(argv):
    """vars() of inputs.build_parser(cli._COMMANDS).parse_args(argv), or None if
    argparse refuses it."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(inputs.build_parser(cli._COMMANDS).parse_args(argv))
        except (inputs._UsageError, SystemExit):
            return None


@settings(max_examples=600, deadline=None)
@given(argvs())
@example((["df", "--c", "1/2", "--beta", "1/2", "catalog:P2-line"], True))
@example((["catalog", "list", "extra"], True))
@example((["catalog", "show"], True))
@example((["df", "catalog:P2-line", "--c", "1/2", "--bet", "1/2"], False))
@example((["df", "catalog:P2-line", "--c", "1/2", "--beta=-1/3"], False))
@example((["df", "catalog:P2-line", "--c", "1/2", "--beta", "1/4", "--beta", "1/2"], False))
@example((["df", "catalog:P2-line", "--c", "1/0", "--beta", "1/2"], False))
@example((["df", "catalog:P2-line", "--c", "1/2", "--beta", "-1/3"], False))
@example((["df", "catalog:P2-line", "--c", "1/2", "--beta", "-1"], False))
@example((["criteria", "--file", "-x"], False))
@example((["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3", "--format", "xml"], False))
@example((["catalog", "LIST"], False))
@example((["thresholds", "catalog:P2-line", "--alpha-L", "1/3", "--alpha-LD", "1/2"], True))
def test_fast_parse_is_argparse_or_none(drawn):
    argv, clean = drawn
    fast, expected = cli._fast_parse(argv), _argparse(argv)
    if expected is None:
        assert fast is None
    elif fast is not None:
        assert vars(fast) == expected
    if clean:  # the fast path reads every well-formed argv
        assert fast is not None


@pytest.mark.parametrize("argv", [
    ["--help"], ["df", "--help"], ["df", "catalog:P2-line", "--c", "1/2", "-h"],
    ["df", "catalog:P2-line", "--c", "1/2"], ["catalog", "list", "--"], [],
])
def test_fast_parse_leaves_help_and_usage_errors_to_argparse(argv):
    assert cli._fast_parse(argv) is None
