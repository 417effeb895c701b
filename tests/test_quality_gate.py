import re

import quality_gate

ROW = re.compile(
    r"^ *(\d+)  ([2-6])  +(\d+\.\d\d)  +(\d+\.\d\d)  +([+-]\d+\.\d\d)  +(\d+)$"
)
SUMMARY = re.compile(
    r"^(development|held-out): final >= init on (\d+)/2, median [+-]\d+\.\d\d,"
    r" mean [+-]\d+\.\d\d: (PASS|FAIL)$"
)


def test_four_seed_table_is_well_formed(capsys):
    # Only the table's form is checked: two seeds per set cannot test the claim.
    code = quality_gate.main(["--jobs", "1", "--seeds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "development seeds 100-101"
    assert lines[5] == "held-out seeds 200-201"
    for header in (1, 6):
        assert lines[header] == "seed  n    init   final  final-init  ignored"
    verdicts = []
    for block, first in ((lines[2:5], 100), (lines[7:10], 200)):
        for offset, line in enumerate(block[:2]):
            seed, _, init, final, gain, _ = ROW.match(line).groups()
            assert int(seed) == first + offset
            assert 0.0 <= float(init) <= 100.0 and 0.0 <= float(final) <= 100.0
            assert abs(float(final) - float(init) - float(gain)) <= 0.011
        summary = SUMMARY.match(block[2])
        assert summary is not None, block[2]
        verdicts.append(summary.group(3) == "PASS")
    assert re.match(r"^quality gate: (PASS|FAIL) \(\d+ s\)$", lines[10])
    assert len(lines) == 11
    assert code == (0 if all(verdicts) else 1)


def test_ignored_points_are_counted():
    # Seed 206 at 64x64 has one point whose region carries another class, met
    # by two of the three stages' target builds.
    assert quality_gate.scene_row(206)[4] == 2
    assert quality_gate.scene_row(205)[4] == 0
