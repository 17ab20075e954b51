import pytest

from prodfree import (
    GroupSpecError,
    MultSet,
    build_group,
    generated_subgroup,
    quotient_projection,
    read_set,
    write_set,
)


def test_round_trip_int(tmp_path, int_group):
    x = MultSet(int_group, [-4, 0, 7])
    path = tmp_path / "ints.txt"
    write_set(path, x)
    back = read_set(path)
    assert back == x
    assert back.oracle.domain == "int"


def test_round_trip_permutations(tmp_path):
    g = build_group("sym:3")
    x = MultSet(g, [(1, 0, 2), (1, 2, 0)])
    path = tmp_path / "perms.txt"
    write_set(path, x)
    assert read_set(path) == x


def test_read_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "annotated.txt"
    path.write_text("# integer test set\n\nint\n3\n# middle note\n-1\n\n8\n")
    x = read_set(path)
    assert x.keys == (-1, 3, 8)


def test_read_reports_bad_group_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nosuch:4\n1\n")
    with pytest.raises(GroupSpecError):
        read_set(path)


def test_read_rejects_keys_outside_the_dihedral_group(tmp_path):
    path = tmp_path / "hexagon.txt"
    path.write_text("dihedral:6\n1,2,3,4,5,0\n1,0,2,3,4,5\n")
    with pytest.raises(GroupSpecError):
        read_set(path)


def test_read_reports_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing but comments\n")
    with pytest.raises(GroupSpecError):
        read_set(path)


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_set(tmp_path / "absent.txt")


def test_write_rejects_unbuildable_domain(tmp_path):
    g = build_group("sym:3")
    sub = [k for k in g.enum_keys]
    q, _ = quotient_projection(g, frozenset(closure(g)))
    x = MultSet(q, q.enum_keys)
    with pytest.raises(GroupSpecError):
        write_set(tmp_path / "quot.txt", x)


def closure(g):
    from prodfree import closure_keys

    return closure_keys(g, [(1, 2, 0)])


def test_write_allows_subgroup_of_buildable_parent(tmp_path):
    # a subgroup view shares the parent's domain tag, so files round-trip
    m = build_group("matrix:2:3")
    q8 = generated_subgroup(m, [(0, 2, 1, 0), (1, 1, 1, 2)])
    x = MultSet(q8, q8.enum_keys[:3])
    path = tmp_path / "q8.txt"
    write_set(path, x)
    back = read_set(path)
    assert back.keys == x.keys
    assert back.oracle.domain == "matrix:2:3"
