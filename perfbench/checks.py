"""Output checks that fail a benchmark run.

Each check returns a list of human-readable problems; an empty list
means the outputs are correct. The checks take plain values so the
benchmark's tests can feed them tampered outputs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence


def session_problems(
    *, phones: int, completed: int, error_replies: int, replay_mismatches: int
) -> list[str]:
    """Every session completes, with no error reply and exact replays."""
    problems = []
    if completed != phones:
        problems.append(f"{completed}/{phones} sessions completed")
    if error_replies:
        problems.append(f"{error_replies} error replies")
    if replay_mismatches:
        problems.append(f"{replay_mismatches} pulls differ from the original reply")
    return problems


def missing_task_problems(
    acked: Iterable[str], present: Callable[[str], bool], where: str
) -> list[str]:
    """Every acknowledged task id is present in ``where``."""
    missing = [task_id for task_id in acked if not present(task_id)]
    if not missing:
        return []
    return [f"{len(missing)} acked tasks missing on {where}, e.g. {missing[0]!r}"]


def footrule_bound_problems(payload: Mapping[str, Any]) -> list[str]:
    """``d_K ≤ d_f ≤ 2·d_K`` (Diaconis–Graham) for every ranking in a reply."""
    problems = []
    for entry in payload.get("rankings", []):
        footrule = entry["weighted_footrule"]
        kemeny = entry["weighted_kemeny"]
        if not kemeny <= footrule <= 2.0 * kemeny:
            problems.append(
                f"profile {entry['profile']!r}: footrule {footrule} outside "
                f"[kemeny, 2·kemeny] with kemeny {kemeny}"
            )
    return problems


def reference_problems(
    payload: Mapping[str, Any], reference: Mapping[str, Any]
) -> list[str]:
    """A served ranking reply equals an uncached ranker's reports.

    ``reference`` maps profile name → report (``ranking.items``,
    ``weighted_footrule``, ``weighted_kemeny``).
    """
    problems = []
    served = {entry["profile"]: entry for entry in payload.get("rankings", [])}
    if set(served) != set(reference):
        return [f"profiles {sorted(served)} served, {sorted(reference)} expected"]
    for name, report in reference.items():
        entry = served[name]
        if (
            list(entry["places"]) != list(report.ranking.items)
            or entry["weighted_footrule"] != report.weighted_footrule
            or entry["weighted_kemeny"] != report.weighted_kemeny
        ):
            problems.append(f"profile {name!r}: served ranking differs from uncached")
    return problems


def table_problems(
    rankings: Mapping[str, Sequence[str]],
    expected: Mapping[str, Sequence[str]],
    table: str,
) -> list[str]:
    """Rankings (place names, best first) equal a paper table row by row."""
    return [
        f"{table} {user}: got {list(rankings.get(user, []))}, expected {list(row)}"
        for user, row in expected.items()
        if list(rankings.get(user, [])) != list(row)
    ]
