"""SARIF 2.1.0 export for every analysis pass (families A/W/S/R/F/C/D).

One run object, one tool driver, the full rule catalogue in
``tool.driver.rules`` (so ``ruleIndex`` resolves even for families the
current invocation did not exercise), one result per finding.  File-based
findings become ``physicalLocation`` records; wiring findings — anchored
at a component/port path instead of a source line — become
``logicalLocations``.  Every analysis command exposes this via ``--sarif FILE``
(``-`` for stdout), making the reports ingestible by GitHub code scanning.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path, PurePosixPath
from typing import Iterable, Optional

from .findings import RULES, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_NAME = "repro-analysis"
_TOOL_URI = "https://github.com/kompics/kompics"  # paper artifact lineage


def _rule_order() -> list[str]:
    return sorted(RULES)


def _uri(path: str) -> str:
    """Forward-slash, preferably repo-relative, artifact URI."""
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd())
    except (OSError, ValueError):
        pass
    return str(PurePosixPath(p))


def _location(finding: Finding) -> dict:
    if finding.file is not None:
        physical: dict = {"artifactLocation": {"uri": _uri(finding.file)}}
        if finding.line is not None:
            region: dict = {"startLine": finding.line}
            if finding.col is not None:
                # SARIF columns are 1-based; ast col_offset is 0-based.
                region["startColumn"] = finding.col + 1
            physical["region"] = region
        return {"physicalLocation": physical}
    return {
        "logicalLocations": [
            {"fullyQualifiedName": finding.obj or "<unknown>", "kind": "member"}
        ]
    }


def to_sarif(findings: Iterable[Finding], *, pretty: bool = True) -> str:
    """Serialize findings as a SARIF 2.1.0 log (string)."""
    order = _rule_order()
    index = {rule_id: i for i, rule_id in enumerate(order)}
    rules = [
        {
            "id": rule_id,
            "name": RULES[rule_id].name,
            "shortDescription": {"text": RULES[rule_id].name},
            "fullDescription": {"text": RULES[rule_id].summary},
            "defaultConfiguration": {"level": "warning"},
            "properties": {"pass": RULES[rule_id].pass_},
        }
        for rule_id in order
    ]
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": index[finding.rule],
            "level": "warning",
            "message": {"text": finding.message},
            "locations": [_location(finding)],
        }
        for finding in findings
    ]
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _TOOL_URI,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2 if pretty else None, sort_keys=True)


def write_sarif(findings: Iterable[Finding], destination: Optional[str]) -> None:
    """Write a SARIF log to ``destination`` (``-`` or None = stdout)."""
    text = to_sarif(findings)
    if destination is None or destination == "-":
        sys.stdout.write(text + "\n")
    else:
        Path(destination).write_text(text + "\n", encoding="utf-8")
