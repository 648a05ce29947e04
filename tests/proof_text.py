"""Canonical text rendering of a proven expansion's proof log, one block
per schedule step and one line per existence certificate.  The golden file
tests/golden/proof_log_deg3.txt holds it for compute_proven_expansion(3), so
that a changed proof shows as a diff and not only as a new digest.

Regenerate the golden file (after a change the proof is meant to show) with

    PYTHONPATH=src python tests/proof_text.py 3 > tests/golden/proof_log_deg3.txt
"""

import sys

from nfsasym.nfsopt import compute_proven_expansion


def _pair(mono) -> str:
    return f"X^{mono[0]} Y^{mono[1]}"


def render(result) -> str:
    lines = []
    for step in result.proof_log.steps:
        slot = "integer" if step.slot_is_integer else "half-integer"
        lines += [
            f"step {_pair(step.target)}: {step.pattern}, slot {_pair(step.slot)} ({slot})",
            f"  kappa_a = {step.kappa_a}",
            f"  kappa_b = {step.kappa_b}",
            f"  kappa_d = {step.kappa_d}",
            f"  b = {step.b_value}, d = {step.d_value}, b_offset = {step.b_offset}",
            f"  pinned_by {step.pinned_by}",
        ]
        lines += [f"  pending {_pair(mono)}: {what}" for mono, what in step.pendings]
        lines += [f"  absorbed {text}" for text in step.absorptions]
    for cert in result.certificates:
        lines.append(f"existence at degree {cert.degree}: kappa = {cert.kappa}, slope = {cert.slope}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    result = compute_proven_expansion(int(sys.argv[1]))
    assert result.ok, result.failure
    sys.stdout.write(render(result))
