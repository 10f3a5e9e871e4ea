"""``python -m repro.analysis all`` — every static pass, one exit code.

Runs every pass in the :mod:`.passes` registry over one shared
:class:`~repro.analysis.program.Program` — one scan, one index, one flow
graph and one dist model for the whole run — and merges the findings
into a single sorted report.  With ``--wiring-examples DIR`` it
additionally assembles every example script in ``DIR`` that declares a
module-level ``WIRING_ROOT`` component class (under a ManualScheduler:
built, verified, never started) and folds the wiring findings (W*) in.

This is the CI and pre-commit entry point: exit 0 means the whole tree is
clean across every family the static passes cover.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import AnalysisConfig
from .findings import Finding
from .passes import PASSES
from .program import Program

#: Module-level attribute an example script sets to its root component
#: class to opt into aggregate wiring verification.
WIRING_ROOT_ATTR = "WIRING_ROOT"


def load_wiring_root(path: Path):
    """Import one example script and return its ``WIRING_ROOT`` class.

    Returns None when the script does not declare one.  The module is
    executed (examples only define classes at import time) and removed
    from ``sys.modules`` again so repeated loads stay independent.
    """
    spec = importlib.util.spec_from_file_location(
        f"repro_wiring_{path.stem}", path
    )
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return getattr(module, WIRING_ROOT_ATTR, None)


def verify_example_assemblies(
    directory: Path, config: Optional[AnalysisConfig] = None
) -> list[Finding]:
    """Assemble and wiring-verify every ``WIRING_ROOT`` example script."""
    from repro import ComponentSystem, ManualScheduler
    from .wiring import verify_system

    config = config or AnalysisConfig()
    findings: list[Finding] = []
    for path in sorted(directory.glob("*.py")):
        if config.path_excluded(path):
            continue
        # Example components may print during assembly or teardown; keep
        # stdout clean for the JSON/SARIF report streams.
        with contextlib.redirect_stdout(sys.stderr):
            root_cls = load_wiring_root(path)
            if root_cls is None:
                continue
            system = ComponentSystem(scheduler=ManualScheduler(), seed=7)
            try:
                system.bootstrap(root_cls)
                verified = verify_system(system)
            finally:
                system.shutdown()
        for finding in verified:
            if not config.rule_enabled(finding.rule):
                continue
            findings.append(
                Finding(
                    rule=finding.rule,
                    message=f"[{path.name}] {finding.message}",
                    obj=finding.obj,
                    extra=finding.extra,
                )
            )
    return findings


def run_all(
    paths: Sequence[Path],
    config: Optional[AnalysisConfig] = None,
    wiring_examples: Optional[Path] = None,
) -> dict[str, list[Finding]]:
    """Run every pass; returns findings per pass name (insertion order)."""
    program = Program(paths, config)
    per_pass = {name: program.report(p.run) for name, p in PASSES.items()}
    if wiring_examples is not None:
        per_pass["wiring"] = verify_example_assemblies(
            wiring_examples, program.config
        )
    return per_pass


def merged_findings(per_pass: dict[str, list[Finding]]) -> list[Finding]:
    merged = [f for findings in per_pass.values() for f in findings]
    merged.sort(key=lambda f: (f.file or "", f.line or 0, f.rule, f.obj or ""))
    return merged


def to_aggregate_json(per_pass: dict[str, list[Finding]]) -> str:
    merged = merged_findings(per_pass)
    counts: dict[str, int] = {}
    for finding in merged:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return json.dumps(
        {
            "version": 1,
            "passes": {
                name: {
                    "findings": [f.to_dict() for f in findings],
                    "total": len(findings),
                }
                for name, findings in per_pass.items()
            },
            "counts": counts,
            "total": len(merged),
        },
        indent=2,
        sort_keys=True,
    )
