"""Line-oriented audit reports: `check_name level pass|fail lhs rhs slack`."""

from __future__ import annotations

from dataclasses import dataclass

from .instance import format_number


def _render(value, as_float: bool) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return format_number(value, as_float)


@dataclass(frozen=True)
class AuditLine:
    name: str
    level: str                  # '-' when the check has no level/index
    passed: bool
    lhs: object = None          # Number | str | None
    rhs: object = None
    slack: object = None        # rhs - lhs when numeric
    mandatory: bool = True      # informational lines don't gate exit codes
    note: str = ""

    def format(self, *, as_float: bool = False) -> str:
        status = "pass" if self.passed else "fail"
        return " ".join([
            self.name,
            self.level or "-",
            status,
            _render(self.lhs, as_float),
            _render(self.rhs, as_float),
            _render(self.slack, as_float),
        ])


def make_line(name: str, lhs, rhs, *, level: str = "-", mandatory: bool = True,
              note: str = "", passed: bool | None = None) -> AuditLine:
    """Inequality line lhs <= rhs (the default pass rule), with slack rhs-lhs."""
    if passed is None:
        passed = lhs <= rhs
    slack = None
    try:
        slack = rhs - lhs
    except TypeError:
        pass
    return AuditLine(name=name, level=level, passed=bool(passed),
                     lhs=lhs, rhs=rhs, slack=slack, mandatory=mandatory, note=note)


def all_pass(lines) -> bool:
    return all(line.passed for line in lines if line.mandatory)
