import numpy as np
import pytest

from degenrank import container
from degenrank.bench import CSV_HEADER
from degenrank.cli import main
from degenrank.degenerate import DegenerateString, parse_degenerate, serialize_degenerate
from degenrank.oracle import positions_of
from degenrank.reductions import build_reduction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_file(tmp_path, capsys, name="inst.txt", n=400, sigma=5, seed=3,
             profile="uniform"):
    path = tmp_path / name
    code, out, _ = run(capsys, "gen", "-o", str(path), "--n", str(n),
                       "--sigma", str(sigma), "--seed", str(seed),
                       "--profile", profile)
    assert code == 0
    return path


def test_gen_stats_roundtrip(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    x = parse_degenerate(path.read_text())
    assert (x.n, x.sigma) == (400, 5)
    code, out, _ = run(capsys, "stats", str(path))
    assert code == 0
    assert f"N {x.N}" in out and f"n0 {x.n0}" in out


def test_stats_on_a_huge_alphabet(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_bytes(f"{2**62} 2\n1\n0 7\n".encode())
    code, out, _ = run(capsys, "stats", str(path))
    assert code == 0
    assert "size-histogram 0 1 1 0\n" in out  # N + 1 = 4 entries


def test_every_command_reads_data_files_alike(tmp_path, capsys):
    # one reader: a CRLF line end is the same line-numbered error everywhere
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"4 2\n0 1\r\n3\r\n")
    for argv in (["stats"], ["build", "-o", str(tmp_path / "c.dgrs")], ["verify"], ["bench"]):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and "line 2: bad symbol" in err, argv


def test_dna_text_format(tmp_path, capsys):
    path = tmp_path / "s.dna"
    path.write_text("ACGTAC\n")
    code, out, _ = run(capsys, "stats", str(path), "--format", "dna-text")
    assert code == 0
    assert "sigma 4" in out and "n 6" in out and "n0 0" in out


@pytest.mark.parametrize("text", ["3 4\n\n\n\n\n", "3 0\n"], ids=["four-empty-sets", "no-sets"])
def test_an_instance_with_no_members_builds_and_verifies(tmp_path, capsys, text):
    data, cont = tmp_path / "empty.txt", tmp_path / "empty.dgrs"
    data.write_text(text)
    code, out, _ = run(capsys, "build", str(data), "-o", str(cont))
    assert code == 0 and "wrote" in out and "measured-bits" not in out
    code, out, _ = run(capsys, "verify", str(data), "--container", str(cont))
    assert code == 0 and out.startswith("ok:")
    code, out, _ = run(capsys, "stats", str(data))
    assert code == 0 and "set-entropy-bits 0.0000" in out


def test_one_distinct_set_has_zero_entropy(tmp_path, capsys):
    path = tmp_path / "a.dna"
    path.write_text("AAAA\n")
    code, out, _ = run(capsys, "stats", str(path), "--format", "dna-text")
    assert code == 0 and "set-entropy-bits 0.0000" in out


def test_build_verify_cycle(tmp_path, capsys):
    data = gen_file(tmp_path, capsys)
    cont = tmp_path / "inst.dgrs"
    code, out, _ = run(capsys, "build", str(data), "--structure", "reduction-iii",
                       "-o", str(cont))
    assert code == 0
    assert "measured-bits" in out and "wrote" in out
    assert container.is_container(cont.read_bytes())

    code, out, _ = run(capsys, "verify", str(data), "--container", str(cont),
                       "--exhaustive")
    assert code == 0 and out.startswith("ok:")

    for structure in ("reduction-ii", "reduction-iii", "dsd"):
        code, out, _ = run(capsys, "verify", str(data), "--structure", structure)
        assert code == 0 and out.startswith("ok:"), structure


def test_verify_catches_corruption(tmp_path, capsys):
    data = gen_file(tmp_path, capsys, seed=9)
    cont = tmp_path / "inst.dgrs"
    assert run(capsys, "build", str(data), "-o", str(cont))[0] == 0
    blob = bytearray(cont.read_bytes())
    comps = {name: (off, ln) for name, off, ln in
             container.scan_components(bytes(blob))}
    off, _ = comps["wavelet"]
    blob[off + 16] ^= 0xFF
    bad = tmp_path / "bad.dgrs"
    bad.write_bytes(bytes(blob))
    code, out, _ = run(capsys, "verify", str(data), "--container", str(bad),
                       "--exhaustive")
    assert code == 1
    assert out == "MISMATCH container: wavelet component fails its CRC\n"


def test_verify_rejects_wrong_data_file(tmp_path, capsys):
    a = gen_file(tmp_path, capsys, name="a.txt", seed=1)
    b = gen_file(tmp_path, capsys, name="b.txt", seed=2)
    cont = tmp_path / "a.dgrs"
    assert run(capsys, "build", str(a), "-o", str(cont))[0] == 0
    code, out, _ = run(capsys, "verify", str(b), "--container", str(cont))
    assert code == 1 and "MISMATCH" in out


def test_a_short_container_is_reported_not_a_traceback(tmp_path, capsys):
    data = gen_file(tmp_path, capsys)
    short = tmp_path / "short.dgrs"
    short.write_bytes(b"DGRS\x02")  # magic and version, then nothing
    code, out, err = run(capsys, "bench", str(short))
    assert code == 2 and err.startswith("error:") and "truncated" in err
    code, out, err = run(capsys, "verify", str(data), "--container", str(short))
    assert code == 1 and out.startswith("MISMATCH container:") and "truncated" in out


@pytest.mark.parametrize("mode", [(), ("--exhaustive",)], ids=["sampled", "exhaustive"])
def test_verify_reports_a_rank_mismatch(tmp_path, capsys, mode):
    data = gen_file(tmp_path, capsys)
    x = parse_degenerate(data.read_text())
    # the same sets in reverse order: sigma, n, N and n0 all agree
    other = tmp_path / "other.txt"
    other.write_bytes(serialize_degenerate(
        DegenerateString.from_sets(x.sigma, list(x.sets())[::-1])))
    cont = tmp_path / "other.dgrs"
    assert run(capsys, "build", str(other), "-o", str(cont))[0] == 0
    code, out, _ = run(capsys, "verify", str(data), "--container", str(cont), *mode)
    assert code == 1 and out.startswith("MISMATCH subset_rank(")


def test_verify_reports_a_select_mismatch(tmp_path, capsys, monkeypatch):
    data = gen_file(tmp_path, capsys)
    st = build_reduction(parse_degenerate(data.read_text()), "reduction-iii")
    right = st.subset_select_many

    def one_off(j, c):
        out = right(j, c)
        out[0] += 1
        return out

    st.subset_select_many = one_off  # every rank agrees, the first select is wrong
    monkeypatch.setattr(container, "load", lambda path: st)
    code, out, _ = run(capsys, "verify", str(data), "--container", "any.dgrs")
    assert code == 1 and out.startswith("MISMATCH subset_select(")


def test_bench_csv_and_determinism(tmp_path, capsys):
    data = gen_file(tmp_path, capsys, n=300, sigma=4, seed=5)
    base_args = ("bench", str(data), "--queries", "20000", "--repeats", "1",
                 "--seed", "11")
    code, out, _ = run(capsys, *base_args, "--csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == CSV_HEADER
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "reduction-iii" and fields[1] == "wavelet"
    assert float(fields[7]) > 0
    checksum = fields[9]

    # same seed and config: identical checksum, independent of timing
    _, out2, _ = run(capsys, *base_args, "--csv")
    assert out2.strip().split("\n")[1].split(",")[9] == checksum

    # a container over the same data with the same structure answers the same
    cont = tmp_path / "inst.dgrs"
    assert run(capsys, "build", str(data), "-o", str(cont))[0] == 0
    code, out3, _ = run(capsys, "bench", str(cont), "--queries", "20000",
                        "--repeats", "1", "--seed", "11", "--csv")
    assert code == 0
    assert out3.strip().split("\n")[1].split(",")[9] == checksum


def test_bench_select_kind(tmp_path, capsys):
    data = gen_file(tmp_path, capsys, n=200, sigma=3, seed=8)
    code, out, _ = run(capsys, "bench", str(data), "--queries", "5000",
                       "--repeats", "1", "--query-kind", "select",
                       "--structure", "dsd")
    assert code == 0
    assert "query kind       select" in out
    assert out.strip().split("\n")[-1].split(",")[6] == "select"


def test_dsd_commands_in_the_large_alphabet_regime(tmp_path, capsys):
    # sigma far above the set sizes: about 2,000 sets of 0 to 3 members over
    # 4,096 symbols, most of which occur in no set
    rng = np.random.default_rng(12)
    sets = [np.sort(rng.choice(4096, s, replace=False)) for s in rng.integers(0, 4, 2000)]
    data = tmp_path / "wide.sets"
    data.write_bytes(serialize_degenerate(DegenerateString.from_sets(4096, sets)))
    cont = tmp_path / "wide.dgrs"
    assert run(capsys, "build", str(data), "--structure", "dsd", "-o", str(cont))[0] == 0
    code, out, _ = run(capsys, "verify", str(data), "--container", str(cont))
    assert code == 0 and out.startswith("ok:")
    code, out, _ = run(capsys, "bench", str(cont), "--query-kind", "select",
                       "--queries", "1000")
    assert code == 0 and "query kind       select" in out


def test_lowerbound_output(capsys):
    code, out, _ = run(capsys, "lowerbound", "65536", "1024")
    assert code == 0
    assert "exact-bits 473415.410330" in out


def test_size_probs_flag(tmp_path, capsys):
    path = tmp_path / "single.txt"
    code, _, _ = run(capsys, "gen", "-o", str(path), "--n", "50", "--sigma", "4",
                     "--seed", "1", "--size-probs", "0,1,0,0,0")
    assert code == 0
    x = parse_degenerate(path.read_text())
    assert x.N == x.n and x.n0 == 0  # all singletons

    # wrong length is a usage error
    code, _, err = run(capsys, "gen", "-o", str(path), "--n", "5", "--sigma", "4",
                       "--seed", "1", "--size-probs", "0,1")
    assert code == 2 and "sigma+1" in err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DEGEN_SEED", "77")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for p in (a, b):
        code, _, _ = run(capsys, "gen", "-o", str(p), "--n", "60", "--sigma", "3")
        assert code == 0
    assert a.read_text() == b.read_text()
    monkeypatch.setenv("DEGEN_SEED", "78")
    c = tmp_path / "c.txt"
    assert run(capsys, "gen", "-o", str(c), "--n", "60", "--sigma", "3")[0] == 0
    assert c.read_text() != a.read_text()


def test_bad_env_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, capsys)
    monkeypatch.setenv("DEGEN_SEED", "abc")
    code, _, err = run(capsys, "stats", str(path))
    assert code == 2
    assert err.strip() == "error: DEGEN_SEED must be an integer, got 'abc'"


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_verify_rejects_a_sample_below_one(tmp_path, capsys, sample):
    path = gen_file(tmp_path, capsys)
    code, out, err = run(capsys, "verify", str(path), "--sample", sample)
    assert code == 2 and "--sample" in err and "ok:" not in out


@pytest.mark.parametrize("flag, value", [("--queries", "0"), ("--queries", "-3"),
                                         ("--repeats", "0"), ("--repeats", "-1")])
def test_bench_rejects_counts_below_one_before_reading(tmp_path, capsys, flag, value):
    # checked before the input is read: the file does not exist
    code, out, err = run(capsys, "bench", str(tmp_path / "missing.txt"), flag, value)
    assert code == 2 and f"{flag} {value} out of range" in err and not out


def test_verify_counts_the_ranks_and_selects_it_checked(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, sigma=4)
    x = parse_degenerate(path.read_text())
    code, out, _ = run(capsys, "verify", str(path), "--exhaustive")
    assert code == 0 and out.endswith(f"({4 * (x.n + 1) + x.N} queries)\n")
    # the draws of --sample 40 --seed 9: 10 ranks per symbol, and the
    # distinct select ordinals among 10 that the symbol has
    rng = np.random.default_rng(9)
    want = 0
    for c in rng.permutation(4):
        rng.integers(0, x.n + 1, 10)
        js = np.unique(rng.integers(1, x.n + 1, 10))
        want += 10 + int((js <= positions_of(x, int(c)).size).sum())
    assert 40 < want < 80
    code, out, _ = run(capsys, "verify", str(path), "--sample", "40", "--seed", "9")
    assert code == 0 and out.endswith(f"({want} queries)\n")


def test_error_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "stats", str(tmp_path / "missing.txt"))
    assert code == 2 and "error:" in err
    broken = tmp_path / "broken.txt"
    broken.write_text("99 bogus\n")
    code, _, err = run(capsys, "stats", str(broken))
    assert code == 2
    assert main(["bench"]) == 2  # missing input argument
    assert main(["no-such-command"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
