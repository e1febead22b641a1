"""Tiny shared result types for the verification drivers."""

from __future__ import annotations

from . import Record


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")
    _defaults = {"detail": ""}
    name: str
    passed: bool
    detail: str

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        mark = "ok" if r.passed else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        lines.append(f"[{mark:>4}] {r.name}{suffix}")
    n_bad = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_bad}/{len(results)} checks passed"
        + (f", {n_bad} FAILED" if n_bad else "")
    )
    return "\n".join(lines)
