"""Byte-for-byte report gate: JSON reports with `duration_ms` zeroed.

An operation is one (model, check) report.  `failed_checks` names the reports
of one invocation that differ from the expected bytes.
"""

from __future__ import annotations

import json
import re

_DURATION = re.compile(rb'"duration_ms": [^,\n]+')


def zero_durations(report_bytes: bytes) -> bytes:
    """The CLI's JSON output with every `duration_ms` value replaced by 0.0."""
    return _DURATION.sub(b'"duration_ms": 0.0', report_bytes)


def failed_checks(actual: bytes, expected: bytes, checks: tuple[str, ...]) -> list[str]:
    """Checks whose zeroed report differs from the expected zeroed output.

    Identical bytes pass every check.  Otherwise reports are compared one by
    one; if each report matches but the bytes still differ (a formatting
    change), every check fails, since the gate is byte-for-byte.
    """
    actual, expected = zero_durations(actual), zero_durations(expected)
    if actual == expected:
        return []
    try:
        got, want = json.loads(actual), json.loads(expected)
    except ValueError:
        return list(checks)
    if not isinstance(got, list) or not isinstance(want, list):
        return list(checks)
    failed = []
    for i, check in enumerate(checks):
        same = (
            i < len(got) and i < len(want)
            and json.dumps(got[i], sort_keys=True) == json.dumps(want[i], sort_keys=True)
        )
        if not same:
            failed.append(check)
    return failed or list(checks)
