"""Structured pass/fail reports of the check tables: the algebra and Poisson
checks of ``opalg.verify`` and the spectrum checks of ``qalg``."""

from typing import NamedTuple


class CheckResult(NamedTuple):
    """Outcome of one exact identity check."""

    name: str
    passed: bool
    residual_terms: int
    wall_time: float
    detail: str = ""

    def record(self, include_timing: bool = False) -> dict:
        rec = {
            "check": self.name,
            "passed": self.passed,
            "residual_terms": self.residual_terms,
        }
        if self.detail:
            rec["detail"] = self.detail
        if include_timing:
            rec["wall_time_s"] = round(self.wall_time, 6)
        return rec


class VerificationReport:
    """A deterministic (name-ordered) collection of check results."""

    def __init__(self, context: dict) -> None:
        self.context = context
        self.results: list[CheckResult] = []

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    def finalize(self) -> "VerificationReport":
        self.results.sort(key=lambda r: r.name)
        return self

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def records(self, include_timing: bool = False) -> list[dict]:
        base = dict(self.context)
        out = []
        for r in self.results:
            rec = dict(base)
            rec.update(r.record(include_timing=include_timing))
            out.append(rec)
        return out

    def __getitem__(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def total_time(self) -> float:
        return sum(r.wall_time for r in self.results)
