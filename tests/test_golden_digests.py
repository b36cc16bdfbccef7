"""Golden final-state digests of small mesh jobs.

A faster predicate or mesher must produce the very same meshes.  Each
case runs one small :class:`JobSpec` through :func:`run_job_solo` and
compares ``state_digest()`` (sha256 over every object's final point set)
with a digest recorded before the exact predicates moved from
``fractions.Fraction`` to integer arithmetic.  A digest changes only when
the produced mesh changes; update one only for a deliberate change to the
mesh output, and say why in the commit.
"""

import pytest

from repro.serve.meshjob import JobSpec, run_job_solo

GOLDEN = [
    (dict(method="updr", geometry="unit_square", h=0.1, nx=2, ny=2),
     "7a5f1ca87163af75f9c8005a7caf53bf0480f47e598d7ebd44ed7d39d266ab54"),
    (dict(method="updr", geometry="unit_square", h=0.1, nx=2, ny=2,
          ghost_sync=True),
     "bf94dfbad4e81582ffcb8a6b91d6608833777c9834a7d4a57f9a060a4a89c69d"),
    (dict(method="updr", geometry="gear", h=0.12, nx=2, ny=2,
          ghost_sync=True),
     "cf2e22cb139d240fca59b08d82b7fc27181168f7590119df1d845b31e3e1e1a4"),
    (dict(method="nupdr", geometry="circle", h=0.12),
     "686db63bc5998b682574a0e67de2bb10dc12ddb8621ef3de01fd2fa80ff984ee"),
    (dict(method="pcdm", geometry="key", h=0.05, n_parts=2),
     "4cfc52da38a878c3950b35251f6e8f88efaf44096b6bc36c1fc5e7060600f898"),
    (dict(method="mesh3d", h=0.15, nx=2, ny=2, nz=2),
     "b0a0b1490c7bd5d5edea35286cbcb70445fab32548dcbae136d52789ca52eb82"),
]


@pytest.mark.parametrize(
    "spec, digest", GOLDEN,
    ids=[
        "-".join(str(v) for k, v in spec.items() if k in ("method", "geometry"))
        + ("-ghost" if spec.get("ghost_sync") else "")
        for spec, _ in GOLDEN
    ],
)
def test_final_state_digest_is_pinned(spec, digest):
    runner = run_job_solo(JobSpec(**spec))
    assert not runner.violations
    assert runner.state_digest() == digest
