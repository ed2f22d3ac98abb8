"""Structured pass/fail reports of the check tables: the algebra and Poisson
checks of ``opalg.verify`` and the spectrum checks of ``qalg``, all three
verify commands run, timed and name-ordered by ``run_checks``."""

import time
from typing import Callable, Iterable, NamedTuple


class CheckResult(NamedTuple):
    """Outcome of one exact identity check."""

    name: str
    passed: bool
    residual_terms: int
    wall_time: float
    detail: str = ""


class VerificationReport:
    """A deterministic (name-ordered) collection of check results."""

    def __init__(self, context: dict, results: Iterable[CheckResult]) -> None:
        self.context = context
        self.results = sorted(results, key=lambda r: r.name)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def records(self) -> list[dict]:
        out = []
        for r in self.results:
            rec = {**self.context, "check": r.name, "passed": r.passed,
                   "residual_terms": r.residual_terms}
            if r.detail:
                rec["detail"] = r.detail
            out.append(rec)
        return out

    def __getitem__(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def total_time(self) -> float:
        return sum(r.wall_time for r in self.results)


def run_checks(context: dict, checks: Iterable[tuple[str, Callable]]) -> VerificationReport:
    """Each (name, check) of ``checks`` run in turn, its call timed: ``check()``
    returns (passed, residual_terms, detail), and the report orders them by name."""
    results = []
    for name, check in checks:
        start = time.perf_counter()
        passed, terms, detail = check()
        results.append(CheckResult(name, passed, terms, time.perf_counter() - start, detail))
    return VerificationReport(context, results)
