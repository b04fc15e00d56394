import hashlib
import io

import pytest
from hypothesis import given, strategies as st

from strsearch import (
    AlphabetSpec,
    DNA_UNIFORM,
    GenSpec,
    SplitMix64,
    generate_text,
    read_fasta,
    read_text_file,
    sample_patterns,
)
from strsearch.datagen import ASCII_PRINTABLE
from strsearch.errors import BadRange, IllegalBase, InvalidWeights, MalformedFasta

from helpers import scan_oracle

# published reference outputs of the standard splitmix64 constants
SPLITMIX_REFERENCE = {
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ],
    0: [16294208416658607535, 7960286522194355700, 487617019471545679],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858],
}


def test_splitmix64_reference_vectors():
    for seed, expected in SPLITMIX_REFERENCE.items():
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(len(expected))] == expected


def test_splitmix64_unit_interval():
    rng = SplitMix64(9)
    for _ in range(1000):
        u = rng.unit()
        assert 0.0 <= u < 1.0


def test_below_unbiased_range():
    rng = SplitMix64(3)
    seen = {rng.below(7) for _ in range(500)}
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


# --- generate_text -----------------------------------------------------------

def test_generate_deterministic():
    spec = GenSpec(alphabet=DNA_UNIFORM, length=5000, seed=77)
    assert generate_text(spec).data == generate_text(spec).data


def test_generate_single_symbol():
    spec = GenSpec(alphabet=AlphabetSpec(b"A", (1.0,)), length=5, seed=0)
    assert generate_text(spec).data == b"AAAAA"


# SHA-256 of generate_text output, pinned so a change to the draw that moves
# any byte of any seed's text fails here; the zero weight sits mid-alphabet
GENERATED_SHA256 = [
    (DNA_UNIFORM, 7, "82ccc1f2b094047332d71c6432fff987d19afc960807d85b31f24a363e633cb3"),
    (ASCII_PRINTABLE, 11, "9bd66f45013edd62849678ea431822dd2cdfe3b8fb69f33afebab8ca78ea7fbe"),
    (AlphabetSpec(b"ACGT", (0.4, 0.0, 0.35, 0.25)), 3,
     "e13a286b5ac1bf23ec1a9e99dc1a00fdae35a9d8f0d9db3f025047b6981f1236"),
]


@pytest.mark.parametrize("alphabet, seed, digest", GENERATED_SHA256)
def test_generate_pinned_bytes(alphabet, seed, digest):
    data = generate_text(GenSpec(alphabet=alphabet, length=10_000, seed=seed)).data
    assert hashlib.sha256(data).hexdigest() == digest


def test_generate_frequencies_converge():
    spec = GenSpec(alphabet=DNA_UNIFORM, length=100_000, seed=123)
    data = generate_text(spec).data
    assert len(data) == 100_000
    for base in b"ACGT":
        assert abs(data.count(base) / 100_000 - 0.25) < 0.01


def test_generate_weighted():
    alpha = AlphabetSpec(b"AB", (0.9, 0.1))
    data = generate_text(GenSpec(alphabet=alpha, length=50_000, seed=4)).data
    assert abs(data.count(ord("A")) / 50_000 - 0.9) < 0.01


def test_alphabet_validation():
    with pytest.raises(InvalidWeights):
        AlphabetSpec(b"AB", (0.5, 0.6))  # sum != 1
    with pytest.raises(InvalidWeights):
        AlphabetSpec(b"AB", (1.5, -0.5))  # negative
    with pytest.raises(InvalidWeights):
        AlphabetSpec(b"AA", (0.5, 0.5))  # duplicate symbol
    with pytest.raises(InvalidWeights):
        AlphabetSpec(b"A\x00", (0.5, 0.5))  # sentinel in alphabet
    with pytest.raises(InvalidWeights):
        AlphabetSpec(b"AB", (1.0,))  # length mismatch
    with pytest.raises(ValueError):
        GenSpec(alphabet=DNA_UNIFORM, length=0, seed=0)


# --- FASTA ---------------------------------------------------------------------

def test_fasta_examples():
    assert read_fasta(b">h\nACGT\nACG\n").data == b"ACGTACG"
    assert read_fasta(b">a\nAC\n>b\nGT\n").data == b"ACGT"
    with pytest.raises(MalformedFasta):
        read_fasta(b"ACGT")
    with pytest.raises(MalformedFasta):
        read_fasta(b"")


def test_fasta_uppercases_and_validates():
    assert read_fasta(b">x\nacgtn\n").data == b"ACGTN"
    with pytest.raises(IllegalBase):
        read_fasta(b">x\nACGU\n")
    assert read_fasta(b">x\nACGU\n", permissive=True).data == b"ACGU"
    with pytest.raises(IllegalBase):
        read_fasta(b">x\nAC\x00GT\n", permissive=True)


def test_fasta_accepts_stream():
    assert read_fasta(io.BytesIO(b">s\nAC GT\n")).data == b"ACGT"


def test_fasta_names_the_first_byte_at_fault():
    # on one line, whichever of an illegal base and a NUL comes first
    for permissive in (False, True):
        with pytest.raises(IllegalBase, match="NUL byte"):
            read_fasta(b">x\nAC\x00GU\n", permissive=permissive)
    with pytest.raises(IllegalBase, match="unexpected base 'U'"):
        read_fasta(b">x\nACUG\x00\n")
    with pytest.raises(IllegalBase, match="NUL byte"):
        read_fasta(b">x\nACUG\x00\n", permissive=True)


def test_readers_take_what_other_entry_points_take():
    for source in (">s\nACGT\n", memoryview(b">s\nACGT\n"), bytearray(b">s\nACGT\n")):
        assert read_fasta(source).data == b"ACGT"
    for source in ("ab\x00c", memoryview(b"ab\x00c"), io.BytesIO(b"ab\x00c")):
        text, removed = read_text_file(source)
        assert (text.data, removed) == (b"abc", 1)
    for bad in (3, None):
        with pytest.raises(TypeError):
            read_fasta(bad)
        with pytest.raises(TypeError):
            read_text_file(bad)


def test_fasta_round_trip():
    data = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=997, seed=55)).data
    lines = [b">generated"] + [data[i : i + 60] for i in range(0, len(data), 60)]
    assert read_fasta(b"\n".join(lines) + b"\n").data == data


# --- plain text -------------------------------------------------------------------

def test_read_text_passthrough():
    text, removed = read_text_file(b"hello world")
    assert text.data == b"hello world"
    assert removed == 0


def test_read_text_strips_sentinel_bytes():
    text, removed = read_text_file(b"a\x00b")
    assert text.data == b"ab"
    assert removed == 1


def test_read_text_empty():
    text, removed = read_text_file(b"")
    assert text.data == b"" and removed == 0


# --- pattern sampling ----------------------------------------------------------------

def test_sampled_patterns_occur():
    text = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=3000, seed=8))
    pats = sample_patterns(text, 50, 3, 12, seed=21)
    assert len(pats) == 50
    for p in pats:
        assert 3 <= len(p.data) <= 12
        assert scan_oracle(text.body, p.data)


def test_sample_deterministic():
    text = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=500, seed=8))
    a = [p.data for p in sample_patterns(text, 10, 2, 6, seed=4)]
    b = [p.data for p in sample_patterns(text, 10, 2, 6, seed=4)]
    assert a == b


def test_sample_len_one_from_tiny_text():
    text, _ = read_text_file(b"abc")
    pats = {p.data for p in sample_patterns(text, 30, 1, 1, seed=0)}
    assert pats <= {b"a", b"b", b"c"}


def test_sample_bad_ranges():
    text, _ = read_text_file(b"abc")
    with pytest.raises(BadRange):
        sample_patterns(text, 1, 0, 2, seed=0)
    with pytest.raises(BadRange):
        sample_patterns(text, 1, 2, 1, seed=0)
    with pytest.raises(BadRange):
        sample_patterns(text, 1, 1, 4, seed=0)


@given(st.integers(0, 2**64 - 1), st.integers(1, 50))
def test_generate_text_is_pure(seed, length):
    spec = GenSpec(alphabet=DNA_UNIFORM, length=length, seed=seed)
    assert generate_text(spec).data == generate_text(spec).data
