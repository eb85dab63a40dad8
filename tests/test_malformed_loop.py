"""A seeded loop of malformed inputs through ``cli.main``.

Each case mutates one input of a run that succeeds unmutated: a flag value,
a config file, a checkpoint, a WAV file or an embedding CSV.  The mutations
are truncations, bit flips, type swaps, huge integers and deep nesting,
drawn from one fixed seed, so every run checks the same cases.  Whatever the
input, a command exits 0, 1, 2 or 3, and a non-zero exit prints exactly one
``error:`` line and leaves ``--out`` absent.

The flags pin ``--steps``, ``--batch-size``, ``--n`` and ``--workers`` small
and are never mutated; a flag overrides the config file, so a mutation that
still parses cannot run long or start many threads.  The huge integers are
TiB-scale or larger, which numpy refuses at once, or values that a guard
rejects before it allocates, such as a WAV chunk size past the end of its
file.

The other direction of the reader oracles runs seeded WAV files that
scipy.io.wavfile.read refuses, and embedding CSVs with a cell np.loadtxt
refuses, through the same contract: none of them may exit 0.
"""

import json
import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from flowfx import cli, dsp, metrics, net

from test_dsp import _WAV_FORMATS, _chunk, _extra_chunks, _random_fmt, _random_samples, _wave
from test_metrics import _random_embedding_csv

SEED = 1907
CASES_PER_SOURCE = 30
PINNED = {"--steps", "--batch-size", "--n", "--workers"}
HUGE = ["1000000000000", "1" + "0" * 30, "9" * 5000]
WRONG = ["", "abc", "1.5", "-1", "0", "nan", "inf", "-inf", "true", "1e999", "0x10",
         "[1]", "{}", "[" * 1000]
JSON_WRONG = ["8", 8.5, -1, 0, None, True, [], {}, [[1.0]], float("nan")]
NESTED = "[" * 100_000 + "]" * 100_000

# flags of a quick successful run per command; {ckpt}, {wav}, {real} and
# {fake} name the fixture files of the case directory
FLAG_RUNS = [
    ["train-fm", "--steps", "2", "--batch-size", "8", "--hidden", "8", "--lr", "0.01",
     "--lr-warmup", "1", "--seed", "3"],
    ["distill", "{ckpt}", "--steps", "2", "--batch-size", "8", "--warmup-steps", "1",
     "--adv-weight", "0.5", "--lr", "0.001", "--guidance", "true", "--cfg-lo", "1",
     "--cfg-hi", "3", "--drop-prob", "0.1"],
    ["sample", "{ckpt}", "--steps", "2", "--n", "4", "--solver", "euler", "--cfg-scale", "2",
     "--cfg-mode", "standard", "--max-nfe", "50", "--cond", "3"],
    ["sample", "{ckpt}", "--steps", "2", "--n", "4", "--solver", "dopri5", "--rtol", "0.001",
     "--atol", "0.001", "--max-nfe", "200"],
    ["codec", "{wav}", "--n-fft", "64", "--hop", "16"],
    ["eval", "--real", "{real}", "--fake", "{fake}", "--k", "1", "--workers", "1"],
]
# (pinned flags, config file) per command
CONFIG_RUNS = [
    (["train-fm", "--steps", "2", "--batch-size", "8"],
     "hidden = 8\nlr = 0.01  # fast\nlr_warmup = 1\n"),
    (["distill", "{ckpt}", "--steps", "2", "--batch-size", "8"],
     "warmup_steps = 1\nadv_weight = 0.5\nguidance = true\ncfg_lo = 1\ncfg_hi = 3\n"),
    (["sample", "{ckpt}", "--steps", "2", "--n", "4"],
     "solver = euler\ncfg_scale = 2\ncfg_mode = standard\nmax_nfe = 50\ncond = 3\n"),
    (["codec", "{wav}"], "n_fft = 64\nhop = 16\n"),
    (["eval", "--real", "{real}", "--fake", "{fake}", "--workers", "1"], "k = 1\n"),
]


def _fixtures(case):
    """Write the unmutated inputs of one case into its directory."""
    model = net.init_model(cli.ring_model_config((8,)), np.random.default_rng(0))
    net.save_checkpoint(case / "ckpt.json", model)
    clip = dsp.synth_signal(0, 0.02)
    dsp.write_wav(case / "clip.wav", clip)
    rows = np.random.default_rng(1).standard_normal((4, 3))
    for side, shift in (("real", 0.0), ("fake", 0.5)):
        (case / side).mkdir()
        metrics.write_embedding_csv(case / side / "a.csv", metrics.EmbeddingSet(rows + shift))
        dsp.write_wav(case / side / "a.wav", clip)
    return {"ckpt": case / "ckpt.json", "wav": case / "clip.wav", "real": case / "real",
            "fake": case / "fake"}


def _flip_bits(rng, data, count, head=None):
    """Flip ``count`` random bits, in the first ``head`` bytes when given."""
    data = bytearray(data)
    for _ in range(count):
        i = int(rng.integers(min(head or len(data), len(data))))
        data[i] ^= 1 << int(rng.integers(8))
    return bytes(data)


def _mutate_bytes(rng, data, kind, head=None):
    if kind == "truncate":
        return data[: int(rng.integers(len(data)))]
    return _flip_bits(rng, data, int(rng.integers(1, 3)), head)


def _flag_case(rng, files, case):
    argv = [a.format(**files) for a in FLAG_RUNS[rng.integers(len(FLAG_RUNS))]]
    tunables = {f"--{key.replace('_', '-')}" for key in ["seed", *cli.SCHEMAS[argv[0]]]}
    slots = [i + 1 for i, a in enumerate(argv[:-1]) if a in tunables - PINNED]
    i = slots[rng.integers(len(slots))]
    kind = ["truncate", "flip", "type", "huge"][rng.integers(4)]
    if kind == "truncate":
        argv[i] = argv[i][: rng.integers(len(argv[i]))]
    elif kind == "flip":
        text = _flip_bits(rng, argv[i].encode(), 1)
        argv[i] = text.decode("utf-8", errors="replace")
    else:
        pool = WRONG if kind == "type" else HUGE
        argv[i] = pool[rng.integers(len(pool))]
    return f"flag {argv[0]} {argv[i - 1]} {kind} {argv[i][:20]!r}", argv


def _config_case(rng, files, case):
    flags, text = CONFIG_RUNS[rng.integers(len(CONFIG_RUNS))]
    kind = ["truncate", "flip", "type", "huge", "nest"][rng.integers(5)]
    if kind in ("truncate", "flip"):
        data = _mutate_bytes(rng, text.encode(), kind)
    else:
        lines = text.splitlines()
        j = rng.integers(len(lines))
        pool = {"type": WRONG, "huge": HUGE, "nest": ["[" * 10_000]}[kind]
        lines[j] = lines[j].split("=")[0] + "= " + pool[rng.integers(len(pool))]
        data = "\n".join(lines).encode()
    (case / "run.conf").write_bytes(data)
    argv = [a.format(**files) for a in flags] + ["--config", str(case / "run.conf")]
    return f"config {argv[0]} {kind} {data[:40]!r}", argv


def _json_paths(obj, path=()):
    """Every key path into ``obj``, with lists entered at their ends only."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for index in sorted({0, len(obj) - 1}):
            yield from _json_paths(obj[index], path + (index,))


def _replace(obj, path, value):
    if not path:
        return value
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _checkpoint_case(rng, files, case):
    ckpt = files["ckpt"]
    data = ckpt.read_bytes()
    kind = ["truncate", "flip", "type", "huge", "nest"][rng.integers(5)]
    if kind in ("truncate", "flip"):
        data = _mutate_bytes(rng, data, kind)
        detail = kind
    else:
        obj = json.loads(data)
        if kind == "huge":  # the sizes of the stored config
            paths = [("config", k) for k, v in obj["config"].items() if isinstance(v, int)]
            paths.append(("config", "hidden", 0))
        else:
            paths = [p for p in _json_paths(obj) if p]
        path = paths[rng.integers(len(paths))]
        if kind == "type":
            value = JSON_WRONG[rng.integers(len(JSON_WRONG))]
            data = json.dumps(_replace(obj, path, value)).encode()
        else:  # a placeholder keeps json.dumps away from 5000-digit ints
            value = HUGE[rng.integers(len(HUGE))] if kind == "huge" else NESTED
            text = json.dumps(_replace(obj, path, "@@@"))
            data = text.replace('"@@@"', value).encode()
        detail = f"{kind} {'/'.join(map(str, path))}={str(value)[:20]!r}"
    ckpt.write_bytes(data)
    command = ["sample", "distill"][rng.integers(2)]
    size = ["--n", "4"] if command == "sample" else ["--batch-size", "8"]
    return f"checkpoint {command} {detail}", [command, str(ckpt), "--steps", "2", *size]


# offset of each RIFF header field in a float32 WAV that write_wav made
WAV_FIELDS = {"riff_size": (4, "<I"), "fmt_size": (16, "<I"), "format": (20, "<H"),
              "channels": (22, "<H"), "rate": (24, "<I"), "byte_rate": (28, "<I"),
              "block_align": (32, "<H"), "bits": (34, "<H")}
WAV_FORMATS = [(1, 16), (1, 32), (1, 8), (1, 24), (3, 64), (3, 16), (0xFFFE, 32), (2, 4)]


def _wav_case(rng, files, case):
    wav = files["wav"] if rng.integers(2) == 0 else files["fake"] / "a.wav"
    data = bytearray(wav.read_bytes())
    kind = ["truncate", "flip", "type", "huge"][rng.integers(4)]
    if kind in ("truncate", "flip"):
        data = _mutate_bytes(rng, bytes(data), kind, head=64)
    elif kind == "type":
        tag, bits = WAV_FORMATS[rng.integers(len(WAV_FORMATS))]
        struct.pack_into("<H", data, 20, tag)
        struct.pack_into("<H", data, 34, bits)
    else:
        sizes = {**WAV_FIELDS, "data_size": (data.find(b"data") + 4, "<I")}
        name = list(sizes)[rng.integers(len(sizes))]
        offset, fmt = sizes[name]
        struct.pack_into(fmt, data, offset, [0xFFFFFFFF, 0xFFFF][fmt == "<H"])
        kind = f"huge {name}"
    wav.write_bytes(bytes(data))
    if wav == files["wav"]:
        return f"wav codec {kind}", ["codec", str(wav), "--n-fft", "64", "--hop", "16"]
    return f"wav eval {kind}", ["eval", "--real", str(files["real"]), "--fake",
                                str(files["fake"]), "--workers", "1"]


def _csv_case(rng, files, case):
    csv = files[["real", "fake"][rng.integers(2)]] / "a.csv"
    data = csv.read_bytes()
    kind = ["truncate", "flip", "type", "huge"][rng.integers(4)]
    if kind in ("truncate", "flip"):
        data = _mutate_bytes(rng, data, kind)
    else:
        lines = data.decode().splitlines()
        j = int(rng.integers(1, len(lines)))
        cells = lines[j].split(",")
        pool = WRONG if kind == "type" else HUGE + ["1" + "0" * 400, "-1e400"]
        cells[rng.integers(len(cells))] = pool[rng.integers(len(pool))]
        lines[j] = ",".join(cells)
        data = ("\n".join(lines) + "\n").encode()
    csv.write_bytes(data)
    return f"csv eval {kind} {data[-60:]!r}", ["eval", "--real", str(files["real"]), "--fake",
                                                str(files["fake"]), "--workers", "1"]


def test_seeded_malformed_inputs_keep_the_exit_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any stray relative path lands here
    rng = np.random.default_rng(SEED)
    makers = [_flag_case, _config_case, _checkpoint_case, _wav_case, _csv_case]
    failures = []
    for n in range(CASES_PER_SOURCE * len(makers)):
        case = tmp_path / f"case{n}"
        case.mkdir()
        label, argv = makers[n % len(makers)](rng, _fixtures(case), case)
        out = case / "out"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main([*argv, "--out", str(out)])
        except Exception as exc:  # a traceback breaks the contract
            code = f"{type(exc).__name__}: {str(exc)[:120]}"
        err = capsys.readouterr().err.splitlines()
        if code not in (0, 1, 2, 3):
            failures.append(f"{label}: ended in {code}")
        elif code and not (len(err) == 1 and err[0].startswith("error: ")):
            failures.append(f"{label}: exit {code} printed {err}")
        elif code and out.exists():
            failures.append(f"{label}: exit {code} left {out}")
    assert not failures, "\n".join(failures)


# format tags neither reader takes: unknown, ADPCM, IMA ADPCM, A-law, mu-law, MP3
BAD_WAV_TAGS = [0, 2, 0x11, 6, 7, 0x55]
# cells np.loadtxt refuses; Python's float reads the last two as 1.5 and 1.0
BAD_CELLS = ["", "abc", "1.5.2", "0x10", "1e", "--1", "1 2", "1d5", ".", "1_0", "nan(",
             "1j", '"1"', "\u0661.\u0665", "\uff11"]


WAV_REFUSALS = ["format tag", "short fmt", "no data"]


def _refused_wav(rng, kind):
    """A seeded WAV that scipy.io.wavfile.read refuses, by ``kind``: a
    format tag it does not know, a fmt chunk shorter than 16 bytes, or no
    data chunk."""
    tag, dtype = _WAV_FORMATS[rng.integers(len(_WAV_FORMATS))]
    channels, frames = int(rng.integers(1, 5)), int(rng.integers(1, 41))
    fmt = _random_fmt(rng, tag, dtype, channels, int(rng.choice([8000, 44100, 48000])))
    data = _chunk(b"data", _random_samples(rng, dtype, frames, channels).tobytes())
    if kind == "format tag":
        fmt = fmt[:8] + struct.pack("<H", BAD_WAV_TAGS[rng.integers(len(BAD_WAV_TAGS))]) + fmt[10:]
    elif kind == "short fmt":
        fmt = _chunk(b"fmt ", fmt[8 : 8 + rng.integers(16)])
    else:
        data = b""
    return _wave(*_extra_chunks(rng), fmt, *_extra_chunks(rng), data)


def _refused_csv(rng, cell):
    """A seeded embedding CSV, (dim, its bytes), with one data cell set to
    ``cell``, which np.loadtxt refuses."""
    data, dim = _random_embedding_csv(rng)
    lines = data.decode().splitlines(keepends=True)
    k = int(rng.integers(1, len(lines)))
    body = lines[k].rstrip("\r\n")
    cells = body.split(",")
    cells[rng.integers(1, dim + 1)] = cell
    lines[k] = ",".join(cells) + lines[k][len(body):]
    return dim, "".join(lines).encode()


def test_inputs_the_oracles_refuse_do_not_exit_0(tmp_path, capsys):
    """The other direction of the reader oracles: 20 seeded WAV files that
    scipy.io.wavfile.read refuses go through ``codec``, and 20 seeded
    embedding CSVs with a cell that np.loadtxt refuses go through ``eval``.
    Each must exit non-zero with one ``error:`` line and leave ``--out``
    absent.  No refused input is accepted: the one case that was, a cell of
    non-ASCII digits that Python's float reads, is now refused too."""
    rng = np.random.default_rng(SEED + 1)
    runs = []
    for i in range(20):
        kind = WAV_REFUSALS[i % len(WAV_REFUSALS)]
        raw = _refused_wav(rng, kind)
        wav = tmp_path / f"{i}.wav"
        wav.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy's unknown-chunk warnings
            # a file that ends after its last chunk without a data chunk
            # ends scipy's chunk loop with its result unbound
            with pytest.raises((ValueError, UnboundLocalError)):
                wavfile.read(wav)
        runs.append((f"wav {i} {kind}", ["codec", str(wav)]))
    # the CSV is the real side's only embedding file and a WAV pair gives eval
    # its report, so the run exits 0 exactly when the CSV is read
    dsp.write_wav(tmp_path / "clip.wav", dsp.synth_signal(0, 0.02))
    clip = (tmp_path / "clip.wav").read_bytes()
    for i in range(20):
        dim, raw = _refused_csv(rng, BAD_CELLS[i % len(BAD_CELLS)])
        real, fake = tmp_path / f"real{i}", tmp_path / f"fake{i}"
        real.mkdir(), fake.mkdir()
        (real / "a.csv").write_bytes(raw)
        (real / "a.wav").write_bytes(clip), (fake / "a.wav").write_bytes(clip)
        with pytest.raises(ValueError):
            np.loadtxt(real / "a.csv", delimiter=",", skiprows=1, usecols=range(1, dim + 1),
                       ndmin=2)
        runs.append((f"csv {i} {raw!r}", ["eval", "--real", str(real), "--fake", str(fake),
                                         "--workers", "1"]))
    failures = []
    for n, (label, argv) in enumerate(runs):
        out = tmp_path / f"out{n}"
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        if code == 0 or len(err) != 1 or not err[0].startswith("error: ") or out.exists():
            failures.append(f"{label}: exit {code}, stderr {err}")
    assert not failures, "\n".join(failures)
