"""The full `logklab criteria` text of every singular-pair criterion.

One document per outcome: each criterion's satisfied verdict and each of its
inconclusive branches, in the order the criterion checks them, plus one
document that triggers all five criteria to pin their order and separators.
"""

import json
import textwrap

import pytest

from logklab.cli import run

BASE = {"Sbeta": "0", "alpha_beta": "1", "n": 2}

CASES = [
    pytest.param(dict(BASE, is_lc=True, is_klt=True, is_logCY=True), 0, """\
        status: CriterionSatisfied
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via log Calabi-Yau criterion]
        certificate note: no certificate needed
        fact: asserted: K_X + (1-beta)*Delta numerically trivial
        fact: asserted: klt = True
        """, id="logCY-satisfied"),
    pytest.param(dict(BASE, is_logCY=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via log Calabi-Yau criterion]
        violated: klt not asserted
        fact: asserted: K_X + (1-beta)*Delta numerically trivial
        fact: asserted: klt = False
        """, id="logCY-klt"),
    pytest.param(dict(BASE,
                      Sbeta="-1", is_lc=True, bullet1_eta="1/2", eta_class_ample=True,
                      third_class_ample=True), 0, """\
        status: CriterionSatisfied
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative-S_beta eta criterion]
        certificate: 1/2
        certificate note: feasible eta supplied by caller
        fact: asserted: lc = True
        fact: eta = 1/2
        fact: asserted: eta*L + K_X + (1-beta)*Delta ample = True
        fact: asserted: -(n-1)(K_X + (1-beta)*Delta) - (S_beta - eta)*L ample = True
        """, id="bullet1-satisfied"),
    pytest.param(dict(BASE,
                      Sbeta="-1", bullet1_eta="1/2", eta_class_ample=True,
                      third_class_ample=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative-S_beta eta criterion]
        violated: lc not asserted
        fact: asserted: lc = False
        fact: eta = 1/2
        fact: asserted: eta*L + K_X + (1-beta)*Delta ample = True
        fact: asserted: -(n-1)(K_X + (1-beta)*Delta) - (S_beta - eta)*L ample = True
        """, id="bullet1-lc"),
    pytest.param(dict(BASE,
                      Sbeta="1/3", is_lc=True, bullet1_eta="1/2", eta_class_ample=True,
                      third_class_ample=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative-S_beta eta criterion]
        violated: S_beta = 1/3 not < 0
        fact: asserted: lc = True
        fact: eta = 1/2
        fact: asserted: eta*L + K_X + (1-beta)*Delta ample = True
        fact: asserted: -(n-1)(K_X + (1-beta)*Delta) - (S_beta - eta)*L ample = True
        """, id="bullet1-Sbeta"),
    pytest.param(dict(BASE,
                      Sbeta="-1", is_lc=True, bullet1_eta="3/2", eta_class_ample=True,
                      third_class_ample=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative-S_beta eta criterion]
        violated: eta = 3/2 not in [0, (n+1)*alpha_beta/n = 3/2)
        fact: asserted: lc = True
        fact: eta = 3/2
        fact: asserted: eta*L + K_X + (1-beta)*Delta ample = True
        fact: asserted: -(n-1)(K_X + (1-beta)*Delta) - (S_beta - eta)*L ample = True
        """, id="bullet1-eta"),
    pytest.param(dict(BASE,
                      Sbeta="-1", is_lc=True, bullet1_eta="1/2", third_class_ample=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative-S_beta eta criterion]
        violated: eta-class ampleness not asserted
        fact: asserted: lc = True
        fact: eta = 1/2
        fact: asserted: eta*L + K_X + (1-beta)*Delta ample = False
        fact: asserted: -(n-1)(K_X + (1-beta)*Delta) - (S_beta - eta)*L ample = True
        """, id="bullet1-eta-class"),
    pytest.param(dict(BASE,
                      Sbeta="-1", is_lc=True, bullet1_eta="1/2", eta_class_ample=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative-S_beta eta criterion]
        violated: third-class ampleness not asserted
        fact: asserted: lc = True
        fact: eta = 1/2
        fact: asserted: eta*L + K_X + (1-beta)*Delta ample = True
        fact: asserted: -(n-1)(K_X + (1-beta)*Delta) - (S_beta - eta)*L ample = False
        """, id="bullet1-third-class"),
    pytest.param(dict(BASE, Sbeta="-3", alpha_beta="1/2", is_lc=True, bullet2_nef=True), 0, """\
        status: CriterionSatisfied
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via nef comparison criterion]
        certificate note: no certificate needed
        fact: asserted: lc = True
        fact: asserted: -S_beta*L - (n+1)(K_X + (1-beta)*Delta) nef
        fact: S_beta = -3, (n+1)*alpha_beta = 3/2
        """, id="bullet2-satisfied"),
    pytest.param(dict(BASE, Sbeta="-3", alpha_beta="1/2", bullet2_nef=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via nef comparison criterion]
        violated: lc not asserted
        fact: asserted: lc = False
        fact: asserted: -S_beta*L - (n+1)(K_X + (1-beta)*Delta) nef
        fact: S_beta = -3, (n+1)*alpha_beta = 3/2
        """, id="bullet2-lc"),
    pytest.param(dict(BASE, Sbeta="3/2", alpha_beta="1/2", is_lc=True, bullet2_nef=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via nef comparison criterion]
        violated: S_beta = 3/2 not < (n+1)*alpha_beta = 3/2
        fact: asserted: lc = True
        fact: asserted: -S_beta*L - (n+1)(K_X + (1-beta)*Delta) nef
        fact: S_beta = 3/2, (n+1)*alpha_beta = 3/2
        """, id="bullet2-Sbeta"),
    pytest.param(dict(BASE, is_lc=True, corollary_neg=True, corollary_nef=True), 0, """\
        status: CriterionSatisfied
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative first-Chern-class corollary]
        certificate note: no certificate needed
        fact: asserted: lc = True
        fact: asserted: c1(X, Delta) < 0 = True
        fact: asserted: -S_beta*L + n*c1(X, Delta) nef = True
        """, id="corollary-satisfied"),
    pytest.param(dict(BASE, is_lc=True, corollary_nef=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative first-Chern-class corollary]
        violated: c1(X, Delta) < 0 not asserted
        fact: asserted: lc = True
        fact: asserted: c1(X, Delta) < 0 = False
        fact: asserted: -S_beta*L + n*c1(X, Delta) nef = True
        """, id="corollary-neg"),
    pytest.param(dict(BASE, is_lc=True, corollary_neg=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative first-Chern-class corollary]
        violated: nef combination not asserted
        fact: asserted: lc = True
        fact: asserted: c1(X, Delta) < 0 = True
        fact: asserted: -S_beta*L + n*c1(X, Delta) nef = False
        """, id="corollary-nef"),
    pytest.param(dict(BASE, corollary_neg=True, corollary_nef=True), 2, """\
        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative first-Chern-class corollary]
        violated: lc not asserted
        fact: asserted: lc = False
        fact: asserted: c1(X, Delta) < 0 = True
        fact: asserted: -S_beta*L + n*c1(X, Delta) nef = True
        """, id="corollary-lc"),
    pytest.param(dict(BASE, klt_inv_semistable=True, klt_inv_ample=True, klt_inv_nef=True), 0, """\
        status: CriterionSatisfied
        claim: (X, (1-beta)*Delta) is Kawamata log terminal [via klt from semistability criterion]
        certificate note: no certificate needed
        fact: asserted: log K-semistable with angle 2*pi*beta = True
        fact: asserted: c1(X, Delta) > 0 = True
        fact: asserted: stated nef combination of S_beta*L and c1(X, Delta) = True
        """, id="klt-satisfied"),
    pytest.param(dict(BASE, klt_inv_ample=True, klt_inv_nef=True), 2, """\
        status: Inconclusive
        claim: (X, (1-beta)*Delta) is Kawamata log terminal [via klt from semistability criterion]
        violated: log K-semistability not asserted
        fact: asserted: log K-semistable with angle 2*pi*beta = False
        fact: asserted: c1(X, Delta) > 0 = True
        fact: asserted: stated nef combination of S_beta*L and c1(X, Delta) = True
        """, id="klt-semistable"),
    pytest.param(dict(BASE, klt_inv_semistable=True, klt_inv_nef=True), 2, """\
        status: Inconclusive
        claim: (X, (1-beta)*Delta) is Kawamata log terminal [via klt from semistability criterion]
        violated: c1(X, Delta) > 0 not asserted
        fact: asserted: log K-semistable with angle 2*pi*beta = True
        fact: asserted: c1(X, Delta) > 0 = False
        fact: asserted: stated nef combination of S_beta*L and c1(X, Delta) = True
        """, id="klt-ample"),
    pytest.param(dict(BASE, klt_inv_semistable=True, klt_inv_ample=True), 2, """\
        status: Inconclusive
        claim: (X, (1-beta)*Delta) is Kawamata log terminal [via klt from semistability criterion]
        violated: nef combination not asserted
        fact: asserted: log K-semistable with angle 2*pi*beta = True
        fact: asserted: c1(X, Delta) > 0 = True
        fact: asserted: stated nef combination of S_beta*L and c1(X, Delta) = False
        """, id="klt-nef"),
    pytest.param(dict(BASE,
                      Sbeta="-1", is_lc=True, is_klt=True, is_logCY=True, bullet1_eta="1/2",
                      eta_class_ample=True, bullet2_nef=True, corollary_neg=True,
                      klt_inv_semistable=True, klt_inv_ample=True, klt_inv_nef=True), 0, """\
        status: CriterionSatisfied
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via log Calabi-Yau criterion]
        certificate note: no certificate needed
        fact: asserted: K_X + (1-beta)*Delta numerically trivial
        fact: asserted: klt = True

        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative-S_beta eta criterion]
        violated: third-class ampleness not asserted
        fact: asserted: lc = True
        fact: eta = 1/2
        fact: asserted: eta*L + K_X + (1-beta)*Delta ample = True
        fact: asserted: -(n-1)(K_X + (1-beta)*Delta) - (S_beta - eta)*L ample = False

        status: CriterionSatisfied
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via nef comparison criterion]
        certificate note: no certificate needed
        fact: asserted: lc = True
        fact: asserted: -S_beta*L - (n+1)(K_X + (1-beta)*Delta) nef
        fact: S_beta = -1, (n+1)*alpha_beta = 3

        status: Inconclusive
        claim: (X, L; Delta) is uniformly log K-stable with angle 2*pi*beta [via negative first-Chern-class corollary]
        violated: nef combination not asserted
        fact: asserted: lc = True
        fact: asserted: c1(X, Delta) < 0 = True
        fact: asserted: -S_beta*L + n*c1(X, Delta) nef = False

        status: CriterionSatisfied
        claim: (X, (1-beta)*Delta) is Kawamata log terminal [via klt from semistability criterion]
        certificate note: no certificate needed
        fact: asserted: log K-semistable with angle 2*pi*beta = True
        fact: asserted: c1(X, Delta) > 0 = True
        fact: asserted: stated nef combination of S_beta*L and c1(X, Delta) = True
        """, id="all-five"),
]


@pytest.mark.parametrize("doc, code, expected", CASES)
def test_criteria_text_is_pinned(capsys, tmp_path, doc, code, expected):
    path = tmp_path / "criteria.json"
    path.write_text(json.dumps(doc))
    assert run(["criteria", "--file", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == textwrap.dedent(expected)
    assert captured.err == ""
