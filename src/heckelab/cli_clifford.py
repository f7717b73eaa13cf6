"""``heckelab clifford``: evaluate the finite-group catalog (restriction
multiplicities, index chains, transfer, center, commutativity)."""
from __future__ import annotations

from .catalog import evaluate_catalog, write_catalog
from .cli_common import (PASS, SKIPPED, CheckRecord, CLIError,
                         VerificationReport, load_models)

# the verdict of each --check mode but "all", which reads "passed"
_CLIFFORD_VERDICTS = {"transfer": "equal", "center": "equal",
                      "commutativity": "coincide"}


def _clifford_checks(records, mode: str) -> list[CheckRecord]:
    checks = []
    for rec in records:
        name = f"entry {rec['name']}"
        if rec["transfer"]["status"] == SKIPPED:
            checks.append(CheckRecord(
                name, SKIPPED,
                {"hypothesis_failures": rec["transfer"]["failures"]}))
            continue
        key = _CLIFFORD_VERDICTS.get(mode)
        good = rec["passed"] if key is None else rec[mode][key] is True
        checks.append(CheckRecord.of(name, good, rec))
    return checks


def run(*, catalog: str, check: str, quick: bool,
        emit_catalog: str | None) -> VerificationReport:
    if emit_catalog is not None:
        try:
            n = write_catalog(emit_catalog)
        except OSError as exc:
            raise CLIError(f"{emit_catalog}: cannot write catalog "
                           f"file: {exc}") from exc
        return VerificationReport(
            "clifford",
            (CheckRecord("catalog-written", PASS),),
            {"path": emit_catalog, "entries": n})
    models = load_models(catalog)
    if quick:
        models = [m for m in models if m.group.order <= 32]
    if catalog == "builtin":
        # a catalog file's models were validated as they were read
        for model in models:
            model.validate()
    records = evaluate_catalog(models)
    checks = _clifford_checks(records, check)
    data = {
        "catalog": catalog,
        "mode": check,
        "entries": records,
    }
    return VerificationReport("clifford", tuple(checks), data)
