from beatty_kfree import cli


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_count_refuses_an_uncertified_alpha(capsys):
    argv = ["count", "--alpha", "cf:1,1,1,1,1,1,1,1", "--grid", "1000:1000:10"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert "x=1000" in capsys.readouterr().err
