"""Report assembly and emission (JSON and markdown).

Reports are reproducible byte-for-byte: every float is rounded to 12
significant digits before serialization and JSON keys are sorted, so the
only legitimate sources of variation (quadrature jitter, BLAS reduction
order) are squashed below the rounding threshold.
"""

from __future__ import annotations

import json

from . import __version__
from .qmaps import CONVENTION


def _round_floats(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


class Report:
    """meta + certificate list + expected/observed summary."""

    def __init__(self, meta=None):
        self.meta = {"convention": CONVENTION, "hbar": "formal symbol",
                     "version": __version__, "provenance": {}}
        if meta:
            self.meta.update(meta)
        self.certificates = []
        self.results = []
        self.expected = {}

    def add_certificate(self, cert, expected_verdict):
        self.certificates.append(cert.to_dict())
        self.expected[self.certificates[-1]["name"]] = expected_verdict

    def add_result(self, result):
        self.results.append(dict(result))

    @property
    def observed(self):
        return {c["name"]: c["verdict"] for c in self.certificates}

    def summary(self):
        if not self.certificates and not self.results:
            return {"expected": {}, "observed": {}, "pass": True,
                    "verdict": "nothing run"}
        observed = self.observed
        ok = observed == self.expected
        return {"expected": dict(sorted(self.expected.items())),
                "observed": dict(sorted(observed.items())),
                "pass": ok,
                "verdict": "as expected" if ok else "mismatch"}

    def exit_code(self):
        """0 when every verdict matches, 2 when anything is undecided,
        1 for any other mismatch."""
        if any(c["verdict"] == "undecided" for c in self.certificates):
            return 2
        return 0 if self.summary()["pass"] else 1

    def to_dict(self):
        certs = [{k: c[k] for k in
                  ("name", "reference", "steps", "verdict", "discrepancy")}
                 for c in self.certificates]
        doc = {"meta": self.meta, "certificates": certs,
               "summary": self.summary()}
        if self.results:
            doc["results"] = self.results
        return _round_floats(doc)


def emit_json(report):
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _md_escape(text):
    return str(text).replace("|", "\\|").replace("\n", " ")


def emit_markdown(report):
    doc = report.to_dict()
    lines = ["# Verification report", ""]
    meta = doc["meta"]
    lines.append("- convention: %s" % meta["convention"])
    lines.append("- hbar: %s" % meta["hbar"])
    lines.append("- version: %s" % meta["version"])
    for k in sorted(meta.get("provenance", {})):
        lines.append("- %s: %s" % (k, meta["provenance"][k]))
    lines.append("")
    for cert in doc["certificates"]:
        lines.append("## %s" % cert["name"])
        lines.append("")
        lines.append("- reference: %s" % cert["reference"])
        lines.append("- verdict: **%s**" % cert["verdict"])
        if cert["discrepancy"] is not None:
            lines.append("- discrepancy: `%s`" % cert["discrepancy"])
        lines.append("")
        lines.append("| classical | quantized left | quantized right | difference |")
        lines.append("|---|---|---|---|")
        for s in cert["steps"]:
            lines.append("| %s | %s | %s | %s |" % (
                _md_escape(s.get("classical", "")),
                _md_escape(s.get("quantum_lhs", "")),
                _md_escape(s.get("quantum_rhs", "")),
                _md_escape(s.get("difference", "")),
            ))
        lines.append("")
    for res in doc.get("results", []):
        lines.append("## %s" % res.get("name", "result"))
        lines.append("")
        for k in sorted(res):
            if k != "name":
                lines.append("- %s: %s" % (k, res[k]))
        lines.append("")
    summ = doc["summary"]
    lines.append("## Summary")
    lines.append("")
    lines.append("- verdict: **%s**" % summ["verdict"])
    if summ["expected"]:
        lines.append("")
        lines.append("| certificate | expected | observed |")
        lines.append("|---|---|---|")
        for name in summ["expected"]:
            lines.append("| %s | %s | %s |" % (
                name, summ["expected"][name],
                summ["observed"].get(name, "missing")))
    lines.append("")
    return "\n".join(lines)


def emit_report(report, fmt="json"):
    if fmt == "json":
        return emit_json(report)
    if fmt == "markdown":
        return emit_markdown(report)
    raise ValueError("unknown format %r" % (fmt,))
