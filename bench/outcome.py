"""Recorded outcomes of every invocation the generator can produce, and the
check of one invocation against them.

An invocation fails on an exit code other than the recorded one, on a
traceback on stderr, or on stdout bytes whose sha256 differs from the
recorded one. A known defect is recorded with the exit code a correct build
gives and no stdout hash, so it counts as failed until a fix records one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
TRACEBACK_MARK = "Traceback (most recent call last)"


@dataclass(frozen=True)
class Verdict:
    failed: bool
    known_defect: bool
    reason: str


class Expected:
    def __init__(self, doc: dict):
        self.outcomes: dict[str, dict] = doc["outcomes"]
        self.known_defects: dict[str, str] = doc["known_defects"]

    @classmethod
    def load(cls, path: Path = EXPECTED_PATH) -> "Expected":
        return cls(json.loads(path.read_text()))

    def check(self, key: str, code: int, stdout: bytes, stderr: str) -> Verdict:
        known = key in self.known_defects
        rec = self.outcomes.get(key)
        if rec is None:
            return Verdict(True, known, "no recorded outcome")
        if TRACEBACK_MARK in stderr:
            return Verdict(True, known, f"traceback (exit {code})")
        if code != rec["exit"]:
            return Verdict(True, known, f"exit {code}, expected {rec['exit']}")
        if rec["sha256"] is None:
            return Verdict(True, known, "no recorded stdout")
        if hashlib.sha256(stdout).hexdigest() != rec["sha256"]:
            return Verdict(True, known, "stdout sha256 differs from the recorded one")
        return Verdict(False, known, "ok")
