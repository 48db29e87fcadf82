"""The exact text of `logklab --help`, of every `<cmd> --help` and of four
usage errors.

These bytes are part of the interface, so a parser change must reproduce
them. COLUMNS is fixed because argparse wraps to the terminal width.
"""

import textwrap

import pytest

from logklab.cli import EXIT_INPUT, EXIT_OK, run

HELP = {
    (): """\
    usage: logklab [-h]
                   {info,scalar,thresholds,window,eta,entropy,df,df-curve,destabilize,critical-c,oracle,criteria,catalog}
                   ...

    Exact-arithmetic log K-stability calculator for polarised pairs.

    positional arguments:
      {info,scalar,thresholds,window,eta,entropy,df,df-curve,destabilize,critical-c,oracle,criteria,catalog}
        info                pair findings, scalar averages, instability threshold
        scalar              scalar averages at a cone angle
        thresholds          beta_u, alpha_beta lower bounds, minimal multiplicity
        window              certified cone-angle window
        eta                 eta-feasibility verdict with certificate
        entropy             entropy-threshold comparison verdict
        df                  log Donaldson-Futaki invariant via both paths
        df-curve            DF grid over c for fixed beta
        destabilize         find c with DF < 0 at this angle
        critical-c          isolate the root of the inner factor
        oracle              brute-force coefficient cross-check report
        criteria            singular-pair criteria from asserted facts
        catalog             builtin pairs

    options:
      -h, --help            show this help message and exit
    """,
    ("info",): """\
    usage: logklab info [-h] pair

    positional arguments:
      pair        pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help  show this help message and exit
    """,
    ("scalar",): """\
    usage: logklab scalar [-h] --beta BETA [--m M] pair

    positional arguments:
      pair         pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help   show this help message and exit
      --beta BETA
      --m M        override divisor multiplicity
    """,
    ("thresholds",): """\
    usage: logklab thresholds [-h] [--m M] [--beta BETA] [--alpha-L ALPHA_L]
                              [--alpha-LD ALPHA_LD] [--alpha-beta ALPHA_BETA]
                              [--lambda LAM] [--Lambda LAMBDA_UP]
                              [--entropy-lower ENTROPY_LOWER]
                              pair

    positional arguments:
      pair                  pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help            show this help message and exit
      --m M
      --beta BETA           angle for the minimal-multiplicity row (default 1/2)
      --alpha-L ALPHA_L     alpha invariant of L (overrides the pair file)
      --alpha-LD ALPHA_LD   alpha invariant of L_D restricted to D
      --alpha-beta ALPHA_BETA
                            direct alpha_beta override
      --lambda LAM          nef threshold lambda
      --Lambda LAMBDA_UP    nef threshold Lambda
      --entropy-lower ENTROPY_LOWER
                            user lower bound for the entropy threshold
    """,
    ("window",): """\
    usage: logklab window [-h] [--m M] --case {large,given,uniform}
                          [--alpha-L ALPHA_L] [--alpha-LD ALPHA_LD]
                          [--alpha-beta ALPHA_BETA] [--lambda LAM]
                          [--Lambda LAMBDA_UP] [--entropy-lower ENTROPY_LOWER]
                          pair

    positional arguments:
      pair                  pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help            show this help message and exit
      --m M
      --case {large,given,uniform}
      --alpha-L ALPHA_L     alpha invariant of L (overrides the pair file)
      --alpha-LD ALPHA_LD   alpha invariant of L_D restricted to D
      --alpha-beta ALPHA_BETA
                            direct alpha_beta override
      --lambda LAM          nef threshold lambda
      --Lambda LAMBDA_UP    nef threshold Lambda
      --entropy-lower ENTROPY_LOWER
                            user lower bound for the entropy threshold
    """,
    ("eta",): """\
    usage: logklab eta [-h] [--m M] --beta BETA [--alpha-L ALPHA_L]
                       [--alpha-LD ALPHA_LD] [--alpha-beta ALPHA_BETA]
                       [--lambda LAM] [--Lambda LAMBDA_UP]
                       [--entropy-lower ENTROPY_LOWER]
                       pair

    positional arguments:
      pair                  pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help            show this help message and exit
      --m M
      --beta BETA
      --alpha-L ALPHA_L     alpha invariant of L (overrides the pair file)
      --alpha-LD ALPHA_LD   alpha invariant of L_D restricted to D
      --alpha-beta ALPHA_BETA
                            direct alpha_beta override
      --lambda LAM          nef threshold lambda
      --Lambda LAMBDA_UP    nef threshold Lambda
      --entropy-lower ENTROPY_LOWER
                            user lower bound for the entropy threshold
    """,
    ("entropy",): """\
    usage: logklab entropy [-h] [--m M] --beta BETA [--alpha-L ALPHA_L]
                           [--alpha-LD ALPHA_LD] [--alpha-beta ALPHA_BETA]
                           [--lambda LAM] [--Lambda LAMBDA_UP]
                           [--entropy-lower ENTROPY_LOWER]
                           pair

    positional arguments:
      pair                  pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help            show this help message and exit
      --m M
      --beta BETA
      --alpha-L ALPHA_L     alpha invariant of L (overrides the pair file)
      --alpha-LD ALPHA_LD   alpha invariant of L_D restricted to D
      --alpha-beta ALPHA_BETA
                            direct alpha_beta override
      --lambda LAM          nef threshold lambda
      --Lambda LAMBDA_UP    nef threshold Lambda
      --entropy-lower ENTROPY_LOWER
                            user lower bound for the entropy threshold
    """,
    ("df",): """\
    usage: logklab df [-h] --c C --beta BETA pair

    positional arguments:
      pair         pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help   show this help message and exit
      --c C
      --beta BETA
    """,
    ("df-curve",): """\
    usage: logklab df-curve [-h] --beta BETA --steps STEPS [--format {csv,json}]
                            pair

    positional arguments:
      pair                 pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help           show this help message and exit
      --beta BETA
      --steps STEPS
      --format {csv,json}
    """,
    ("destabilize",): """\
    usage: logklab destabilize [-h] --beta BETA pair

    positional arguments:
      pair         pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help   show this help message and exit
      --beta BETA
    """,
    ("critical-c",): """\
    usage: logklab critical-c [-h] --beta BETA --tol TOL pair

    positional arguments:
      pair         pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help   show this help message and exit
      --beta BETA
      --tol TOL
    """,
    ("oracle",): """\
    usage: logklab oracle [-h] --c C [--kmax KMAX] pair

    positional arguments:
      pair         pair source: 'catalog:NAME' or a JSON file path

    options:
      -h, --help   show this help message and exit
      --c C
      --kmax KMAX  sample listing bound for the report (default 60)
    """,
    ("criteria",): """\
    usage: logklab criteria [-h] --file FILE

    options:
      -h, --help   show this help message and exit
      --file FILE  JSON document mirroring the criteria input
    """,
    ("catalog",): """\
    usage: logklab catalog [-h] {list,show} [name]

    positional arguments:
      {list,show}
      name

    options:
      -h, --help   show this help message and exit
    """,
}

USAGE_ERRORS = [
    pytest.param(["info", "catalog:P2-line", "--nope"], """\
    usage: logklab [-h]
                   {info,scalar,thresholds,window,eta,entropy,df,df-curve,destabilize,critical-c,oracle,criteria,catalog}
                   ...
    error: unrecognized arguments: --nope
    """, id="unknown-flag"),
    pytest.param(["df", "catalog:P2-line", "--c", "1/2"], """\
    usage: logklab df [-h] --c C --beta BETA pair
    error: the following arguments are required: --beta
    """, id="missing-required"),
    pytest.param(["df-curve", "catalog:P2-line", "--beta", "1/2", "--steps", "3", "--format", "xml"], """\
    usage: logklab df-curve [-h] --beta BETA --steps STEPS [--format {csv,json}]
                            pair
    error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')
    """, id="bad-choice"),
    pytest.param(["scalar", "catalog:P2-line", "--beta", "1/2", "--m", "x"], """\
    usage: logklab scalar [-h] --beta BETA [--m M] pair
    error: argument --m: invalid int value: 'x'
    """, id="bad-int"),
]


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "logklab")
def test_help_text_is_pinned(capsys, command):
    assert run([*command, "--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == textwrap.dedent(HELP[command])
    assert captured.err == ""


@pytest.mark.parametrize("argv, expected", USAGE_ERRORS)
def test_usage_error_text_is_pinned(capsys, argv, expected):
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == textwrap.dedent(expected)
