import random
import string

import pytest

from adrrefine.codes import (
    BnfCode,
    Item,
    ItemKind,
    bnf_level,
    bnf_truncate,
    gender_item,
    normalize_item,
    parse_bnf,
    parse_item,
    parse_read,
    read_level,
    read_parent,
    read_truncate,
)
from adrrefine.errors import DomainError, ParseError

ALPHABET = string.ascii_letters + string.digits


def random_read(rng: random.Random) -> "str":
    level = rng.randint(1, 5)
    head = "".join(rng.choice(ALPHABET) for _ in range(level))
    return head + "." * (5 - level)


def random_bnf(rng: random.Random) -> str:
    level = rng.randint(1, 4)
    parts = [rng.randint(1, 20) for _ in range(level)] + [0] * (4 - level)
    return ".".join(str(p) for p in parts)


class TestReadLevel:
    def test_full_depth_code(self):
        assert read_level(parse_read("A11zz")) == 5

    def test_level_two(self):
        assert read_level(parse_read("A1...")) == 2

    def test_level_one(self):
        assert read_level(parse_read("A....")) == 1

    @pytest.mark.parametrize(
        "bad",
        ["A11z", "A11zzz", "A.1..", ".....", ".A11z", "A11z!", ""],
    )
    def test_malformed_codes_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_read(bad)


class TestReadParent:
    def test_parent_of_full_code(self):
        assert str(read_parent(parse_read("A11zz"))) == "A11z."

    def test_parent_of_level_two(self):
        assert str(read_parent(parse_read("A1..."))) == "A...."

    def test_level_one_has_no_parent(self):
        with pytest.raises(DomainError):
            read_parent(parse_read("A...."))


class TestReadTruncate:
    def test_truncate_to_level_three(self):
        assert str(read_truncate(parse_read("A11zz"), 3)) == "A11.."

    def test_truncate_at_own_level_is_identity(self):
        assert str(read_truncate(parse_read("A11zz"), 5)) == "A11zz"

    def test_truncate_above_level_is_identity(self):
        assert str(read_truncate(parse_read("A1..."), 4)) == "A1..."

    @pytest.mark.parametrize("k", [0, 6, -1])
    def test_level_out_of_range(self, k):
        with pytest.raises(DomainError):
            read_truncate(parse_read("A11zz"), k)


class TestBnfTruncate:
    def test_truncate_to_level_two(self):
        assert str(bnf_truncate(parse_bnf("5.1.12.3"), 2)) == "5.1.0.0"

    def test_idempotent_at_level(self):
        assert str(bnf_truncate(parse_bnf("1.2.0.0"), 2)) == "1.2.0.0"

    def test_identity_at_full_depth(self):
        assert str(bnf_truncate(parse_bnf("3.4.5.6"), 4)) == "3.4.5.6"

    @pytest.mark.parametrize("bad", ["0.1.0.0", "1.0.2.0", "1.2.3", "1.2.3.4.5", "a.b.c.d", "1.-2.0.0"])
    def test_malformed_codes_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_bnf(bad)


class TestNormalizeItem:
    def test_read_maps_to_level_three(self):
        assert normalize_item("READ", "A11zz") == Item(ItemKind.READ, "A11..")

    def test_bnf_maps_to_level_two(self):
        assert normalize_item("BNF", "5.1.12.0") == Item(ItemKind.BNF, "5.1.0.0")

    def test_gender_passthrough(self):
        assert gender_item("M") == Item(ItemKind.GENDER, "M")
        assert gender_item("M").token == "GENDER:M"

    def test_unknown_code_type(self):
        with pytest.raises(ParseError):
            normalize_item("ICD", "A11zz")

    def test_bad_gender(self):
        with pytest.raises(ParseError):
            gender_item("X")

    def test_gender_token_cannot_collide_with_codes(self):
        # Tokens are self-identifying: 5 chars = diagnosis, dotted = drug.
        assert len(gender_item("F").token) not in (5,)
        assert parse_item("GENDER:F") == gender_item("F")


class TestProperties:
    def test_truncation_idempotent(self):
        rng = random.Random(101)
        for _ in range(300):
            code = parse_read(random_read(rng))
            k = rng.randint(1, 5)
            once = read_truncate(code, k)
            assert read_truncate(once, k) == once
            bcode = parse_bnf(random_bnf(rng))
            j = rng.randint(1, 4)
            bonce = bnf_truncate(bcode, j)
            assert bnf_truncate(bonce, j) == bonce

    def test_truncation_level_is_min(self):
        rng = random.Random(102)
        for _ in range(300):
            code = parse_read(random_read(rng))
            k = rng.randint(1, 5)
            assert read_level(read_truncate(code, k)) == min(k, read_level(code))

    def test_parent_equals_truncate_to_level_minus_one(self):
        rng = random.Random(103)
        for _ in range(300):
            code = parse_read(random_read(rng))
            level = read_level(code)
            if level >= 2:
                assert read_parent(code) == read_truncate(code, level - 1)

    def test_render_parse_round_trip(self):
        rng = random.Random(104)
        for _ in range(300):
            code = parse_read(random_read(rng))
            assert parse_read(str(code)) == code
            bcode = parse_bnf(random_bnf(rng))
            assert parse_bnf(str(bcode)) == bcode

    def test_item_token_round_trip(self):
        rng = random.Random(105)
        for _ in range(300):
            choice = rng.randint(0, 2)
            if choice == 0:
                item = normalize_item("READ", random_read(rng))
            elif choice == 1:
                item = normalize_item("BNF", random_bnf(rng))
            else:
                item = gender_item(rng.choice("MF"))
            assert parse_item(item.token) == item

    def test_parse_item_rejects_unnormalized_levels(self):
        with pytest.raises(ParseError):
            parse_item("A11zz")  # level 5 diagnosis code is not an item
        with pytest.raises(ParseError):
            parse_item("5.1.12.0")  # level 3 drug code is not an item
