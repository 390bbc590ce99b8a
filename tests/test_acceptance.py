"""Acceptance battery: one test per criterion of ``phasecraft.checks``, run
at full size with seed 100 + NN, each record printed as a single PASS/FAIL
line with the measured figure against its fixed bound (run with -s to see
the lines).  Criterion 14 checks that selftest reruns byte-identically."""

import os

from phasecraft import checks, cli


def _acceptance_test(num, criterion):
    def test():
        records = criterion(100 + num, quick=False)
        for rec in records:
            print(f"criterion {num:02d} {'PASS' if rec['pass'] else 'FAIL'}  "
                  f"{rec['name']}: {rec['value']:.3e} <= {rec['bound']:.3e}")
        failed = [rec["name"] for rec in records if not rec["pass"]]
        assert not failed, f"criterion {num}: {failed}"

    return test


# one test per registry entry, named after it (test_criterion_NN_<topic>)
for _num, _criterion in checks.CRITERIA:
    globals()[f"test_{_criterion.__name__}"] = _acceptance_test(_num, _criterion)


def test_criterion_14_selftest_determinism(tmp_path):
    outs = []
    for sub in ("one", "two"):
        out = str(tmp_path / sub)
        assert cli.run("selftest", None, out, seed=7) == 0
        with open(os.path.join(out, "manifest.json"), "rb") as fh:
            outs.append(fh.read())
    identical = outs[0] == outs[1]
    print(f"criterion 14 {'PASS' if identical else 'FAIL'}  selftest --seed 7 "
          f"manifests byte-identical: {identical}")
    assert identical
