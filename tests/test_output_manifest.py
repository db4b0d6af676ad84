from output_manifest import compare_dirs


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_compare_ends_with_one_summary_line(tmp_path):
    out, other = tmp_path / "out", tmp_path / "other"
    write(out / "a.csv", "t,value\n1,1.0\n2,2.5\n")
    write(other / "a.csv", "t,value\n1,1.0\n2,2.0\n")
    write(out / "run" / "b.csv", "method,value\ndtvw,100.0\n")
    write(other / "run" / "b.csv", "method,value\ntvw,101.0\nbma,1.0\n")
    write(out / "c.csv", "x\n1\n")
    lines = compare_dirs(str(out), str(other))
    assert lines[:5] == [
        "compare a.csv  max_rel 0.25  text_diffs 0",
        "compare a.csv  column value  max_rel 0.25",
        f"compare c.csv  only in {out}",
        "compare run/b.csv  max_rel 0.0099  text_diffs 1  rows 2 vs 3",
        "compare run/b.csv  column value  max_rel 0.0099",
    ]
    assert lines[5:] == ["compare all  max_rel 0.25  text_diffs 1  files_with_other_row_counts 1  files_in_one_dir_only 1"]


def test_equal_directories_sum_to_zero(tmp_path):
    for side in ("out", "other"):
        write(tmp_path / side / "a.csv", "t,value\n1,0.5\n")
    assert compare_dirs(str(tmp_path / "out"), str(tmp_path / "other"))[-1] == "compare all  max_rel 0  text_diffs 0"


def test_compare_names_every_column_whose_numbers_differ(tmp_path):
    # each column's own largest difference, in column order; a text cell
    # that differs counts in text_diffs and names no column
    write(tmp_path / "out" / "scores.csv", "method,rmsfe,crps,dm_crps_p\ndtvw,1.0,0.5000001,0.2\nbma,2.0,4.0,0.3\n")
    write(tmp_path / "other" / "scores.csv", "method,rmsfe,crps,dm_crps_p\ntvw,1.0,0.5,0.2\nbma,2.0,3.0,0.3003\n")
    lines = compare_dirs(str(tmp_path / "out"), str(tmp_path / "other"))
    assert lines == [
        "compare scores.csv  max_rel 0.333  text_diffs 1",
        "compare scores.csv  column crps  max_rel 0.333",
        "compare scores.csv  column dm_crps_p  max_rel 0.0003",
        "compare all  max_rel 0.333  text_diffs 1",
    ]
