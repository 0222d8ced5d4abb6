import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (complex_json, dense_homology, dense_kernel_basis,
                     dense_rank,
                     dense_row_echelon, dense_rows,
                     identity_matrix, integer_entries, is_normal_form,
                     kron_power, mixed_rationals, qmatrices, random_qmatrix,
                     schoolbook_kron, schoolbook_matmul, sparse_rationals,
                     unit_entries, zero_matrix)
from motivic_kit import cli, qlinalg
from motivic_kit._value import InputError, show
from motivic_kit.qlinalg import (_READ_ENTRIES, ChainComplex, QMatrix,
                                 _echelon_rows, matmul,
                                 product_terms, rank, single_degree_complex)


def matrices_of(entries, max_rows=5, max_cols=6):
    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)) \
        .flatmap(lambda s: qmatrices(s[0], s[1], entries))


class TestQMatrix:
    def test_entries_reduced_and_exact(self):
        m = QMatrix(1, 2, [Fraction(2, 4), "3/9"])
        assert m.entries == (Fraction(1, 2), Fraction(1, 3))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            QMatrix(2, 2, [1, 2, 3])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QMatrix(1, 1, [0.5])

    def test_json_round_trip(self):
        m = QMatrix(2, 2, [Fraction(1, 2), -3, 0, Fraction(7, 5)])
        data = m.to_json()
        assert data["entries"] == ["1/2", "-3", "0", "7/5"]
        assert QMatrix.from_json(data) == m

    @pytest.mark.parametrize("rows, cols", [(0, 0), (3, 0), (0, 4)])
    def test_equal_empty_records_read_to_equal_values(self, rows, cols):
        a, b = ({"rows": rows, "cols": cols, "entries": []} for _ in "ab")
        assert QMatrix.from_json(a) == QMatrix.from_json(b) == QMatrix(
            rows, cols, [])

    @pytest.mark.parametrize("rows, cols, entries, message", [
        (2, 2, [], "top-level value is not a matrix: entry count does not "
         "match shape"),
        (-1, 0, [], "top-level value is not a matrix: negative matrix "
         "dimensions"),
        (1, 2, ["1", "1/0"], r'entries\[1\] must be an integer or a '
         r'rational string, got "1/0"'),
        (2, 2, [1, "2", 3], "top-level value is not a matrix: entry count "
         "does not match shape"),
        (-1, -2, ["1", 2], "top-level value is not a matrix: negative "
         "matrix dimensions")])
    def test_a_refused_record_is_refused_every_time(self, rows, cols, entries,
                                                    message):
        # an InputError, so that the readers around it put the path in front
        qlinalg._shared_matrix.cache_clear()
        for _ in range(2):
            with pytest.raises(InputError, match=f"^{message}$"):
                QMatrix.from_json({"rows": rows, "cols": cols,
                                   "entries": entries})
        assert qlinalg._shared_matrix.cache_info().currsize == 0


exact_values = st.one_of(sparse_rationals, mixed_rationals)
dense_records = st.tuples(st.integers(0, 5), st.integers(0, 6)).flatmap(
    lambda s: st.tuples(st.just(s[0]), st.just(s[1]), st.lists(
        exact_values, min_size=s[0] * s[1], max_size=s[0] * s[1])))


class TestTerms:
    """A matrix is its nonzero terms, built alike from a dense list or a
    dict of terms."""

    @settings(max_examples=300, deadline=None)
    @given(dense_records)
    @example((0, 4, []))
    @example((3, 0, []))
    def test_dense_and_terms_forms_are_one_value(self, record):
        rows, cols, dense = record
        nonzero = {k: v for k, v in enumerate(dense) if v}
        every = dict(reversed(list(enumerate(dense))))  # zeros, unsorted
        a = QMatrix(rows, cols, dense)
        for b in (QMatrix(rows, cols, nonzero), QMatrix(rows, cols, every)):
            assert a == b and hash(a) == hash(b)
            assert a.entries == b.entries == tuple(map(Fraction, dense))
            assert a.to_json() == b.to_json()
        assert [k for k, _ in a.terms] == sorted(nonzero)
        assert all(v for _, v in a.terms) and is_normal_form(a)

    @settings(max_examples=300, deadline=None)
    @given(dense_records)
    @example((0, 4, []))
    @example((3, 0, []))
    def test_transpose_and_rank_match_the_dense_oracles(self, record):
        a = QMatrix(*record)
        rows = dense_rows(a)
        assert a.transpose() == QMatrix(a.cols, a.rows, [
            rows[i][j] for j in range(a.cols) for i in range(a.rows)])
        assert a.transpose().transpose() == a
        assert rank(a) == dense_rank(a) == rank(a.transpose())

    @pytest.mark.parametrize("terms", [{4: 1}, {-1: 2}, {0: 1, 9: "1/2"}])
    def test_a_term_index_out_of_range_is_refused(self, terms):
        with pytest.raises(ValueError, match="^term index out of range$"):
            QMatrix(2, 2, terms)

    @pytest.mark.parametrize("entries", [[0.0, 1], [1, 0.5], {0: 0.0},
                                         {1: 2.5}])
    def test_a_float_is_refused_in_either_form(self, entries):
        # a float zero too, although it would be dropped
        with pytest.raises(TypeError, match="^not an exact rational: "):
            QMatrix(1, 2, entries)

    @pytest.mark.parametrize("rows, cols, entries, error, message", [
        (2, 2, [1, 2, 3], ValueError, "entry count does not match shape"),
        (1, 2, [], ValueError, "entry count does not match shape"),
        (-1, 2, [], ValueError, "negative matrix dimensions"),
        (2, -1, {}, ValueError, "negative matrix dimensions"),
        (-1, 2, [0.0], TypeError, r"not an exact rational: 0\.0"),
        (2, 2, [1, "1/0"], ZeroDivisionError, None)])
    def test_the_first_fault_is_named_as_before(self, rows, cols, entries,
                                                error, message):
        # normal form first, then the sign of the shape, then its size
        with pytest.raises(error, match=message and f"^{message}$"):
            QMatrix(rows, cols, entries)


class TestNormalForm:
    @pytest.mark.parametrize("value, kind", [
        (3, int), (-2, int), (True, int), (Fraction(4, 2), int),
        ("6/3", int), ("-4", int), ("1/2", Fraction),
        (Fraction(-3, 6), Fraction)])
    def test_constructor_normalises(self, value, kind):
        (x,) = QMatrix(1, 1, [value]).entries
        assert type(x) is kind
        assert x == Fraction(value)

    def test_int_and_fraction_entries_equal_and_hash_alike(self):
        a, b = QMatrix(1, 1, [1]), QMatrix(1, 1, [Fraction(1)])
        assert a == b
        assert hash(a) == hash(b)
        assert str(a) == str(b)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.integers(0, 3)] * 3).flatmap(
        lambda s: st.tuples(qmatrices(s[0], s[1], mixed_rationals),
                            qmatrices(s[1], s[2], sparse_rationals))))
    def test_results_in_normal_form(self, pair):
        a, b = pair
        for m in (a, b, matmul(a, b), a.transpose()):
            assert is_normal_form(m)


class TestMatmul:
    def test_identity(self):
        rng = random.Random(1)
        a = random_qmatrix(rng, 3, 3)
        assert matmul(identity_matrix(3), a) == a
        assert matmul(a, identity_matrix(3)) == a

    def test_scalar_case(self):
        half_of_two = matmul(QMatrix(1, 1, [Fraction(1, 2)]),
                             QMatrix(1, 1, [2]))  # [1]
        assert matmul(half_of_two, QMatrix(1, 1, [3])) == QMatrix(1, 1, [3])

    def test_against_schoolbook_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_qmatrix(rng, 3, 3)
            b = random_qmatrix(rng, 3, 3)
            assert matmul(a, b) == schoolbook_matmul(a, b)

    def test_associativity(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_qmatrix(rng, 2, 3)
            b = random_qmatrix(rng, 3, 2)
            c = random_qmatrix(rng, 2, 4)
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(identity_matrix(2), identity_matrix(3))

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.integers(0, 4)] * 3).flatmap(
        lambda s: st.tuples(qmatrices(s[0], s[1]), qmatrices(s[1], s[2]))))
    def test_sparse_product_matches_schoolbook(self, pair):
        a, b = pair
        assert matmul(a, b) == schoolbook_matmul(a, b)


    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.integers(0, 4)] * 3).flatmap(
        lambda s: st.tuples(qmatrices(s[0], s[1], mixed_rationals),
                            qmatrices(s[1], s[2], mixed_rationals))))
    def test_mixed_entries_match_schoolbook(self, pair):
        a, b = pair
        assert matmul(a, b) == schoolbook_matmul(a, b)


def nonzero_entries(m: QMatrix) -> dict:
    return {k: v for k, v in enumerate(m.entries) if v}


class TestProductTerms:
    """The nonzero entries of a product, as the square checks compare them."""

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.integers(0, 4)] * 3).flatmap(
        lambda s: st.tuples(qmatrices(s[0], s[1], mixed_rationals),
                            qmatrices(s[1], s[2], mixed_rationals))))
    def test_matches_schoolbook(self, pair):
        a, b = pair
        assert product_terms(a, b) == nonzero_entries(schoolbook_matmul(a, b))

    def test_cancelling_terms_are_dropped(self):
        a, b = QMatrix(1, 2, [1, 1]), QMatrix(2, 1, [Fraction(1, 2), "-1/2"])
        assert product_terms(a, b) == {}

    def test_row_major_keys(self):
        a = QMatrix(2, 1, [0, 2])
        b = QMatrix(1, 3, [0, 0, Fraction(1, 3)])
        assert product_terms(a, b) == {5: Fraction(2, 3)}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            product_terms(zero_matrix(2, 0), zero_matrix(1, 2))


@st.composite
def decimal_strings(draw):
    """Integer strings as `int()` reads them: a sign, padding, a `_`."""
    digits = str(draw(st.integers(0, 10 ** 6)))
    if len(digits) > 1 and draw(st.booleans()):
        i = draw(st.integers(1, len(digits) - 1))
        digits = digits[:i] + "_" + digits[i:]
    pad = draw(st.sampled_from(["", " ", "\t", " \n"]))
    return pad + draw(st.sampled_from(["", "+", "-"])) + digits + pad


accepted_entries = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), decimal_strings(),
    st.sampled_from(["1/2", "2/2", "1e3", "-3/6"]))
rejected_entries = st.sampled_from([True, 2.5, None, "1/0", [1], "x",
                                    "1e999999999"])


def read_by_both(entries):
    """What `QMatrix.from_json`, through its shared one-pass reader, and
    the per-entry reader make of a list: the values and their types, or
    the error's path and message."""
    outcomes = []
    record = {"rows": 1, "cols": len(entries), "entries": list(entries)}
    for reader in (lambda data: list(QMatrix.from_json(data).entries),
                   lambda data: _READ_ENTRIES(data)[0]):
        try:
            values = reader(record)
        except InputError as exc:
            outcomes.append((exc.path, str(exc)))
        else:
            outcomes.append((values, [type(v) for v in values]))
    return outcomes


class TestEntryReaders:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(accepted_entries, max_size=8))
    def test_agree_on_accepted_lists(self, entries):
        fast, each = read_by_both(entries)
        assert fast == each
        assert set(fast[1]) <= {int, Fraction}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(accepted_entries, max_size=6), rejected_entries,
           st.lists(st.one_of(accepted_entries, rejected_entries),
                    max_size=4))
    def test_agree_on_the_first_rejected_entry(self, head, bad, tail):
        fast, each = read_by_both(head + [bad] + tail)
        assert fast == each
        assert fast == (f"entries[{len(head)}]",
                        f"entries[{len(head)}] must be an integer or a "
                        f"rational string, got {show(bad)}")

    def test_integer_strings_read_as_integers(self):
        assert read_by_both(["-1", " 2 ", "1_0", 3])[0][0] == [-1, 2, 10, 3]
        assert read_by_both(["2/2", "1/2"])[0][1] == [int, Fraction]


class TestKron:
    """The flattening convention of the Kronecker product the dense
    oracles use, the one `tuple_index_matrix` numbers tuples by."""

    def test_identity_tensor(self):
        assert schoolbook_kron(identity_matrix(2), identity_matrix(3)) == \
            identity_matrix(6)

    def test_row_of_ones(self):
        ones = QMatrix(1, 2, [1, 1])
        assert schoolbook_kron(ones, ones) == QMatrix(1, 4, [1, 1, 1, 1])

    def test_flattening_convention(self):
        # row (s', t') flattens to s'*b.rows + t'
        a = QMatrix(2, 1, [1, 0])
        b = QMatrix(3, 1, [0, 1, 0])
        v = schoolbook_kron(a, b)
        assert v.entries.index(1) == 0 * 3 + 1

    def test_interchange(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_qmatrix(rng, 2, 2)
            b = random_qmatrix(rng, 2, 2)
            c = random_qmatrix(rng, 2, 2)
            d = random_qmatrix(rng, 2, 2)
            assert matmul(schoolbook_kron(a, b), schoolbook_kron(c, d)) == \
                schoolbook_kron(matmul(a, c), matmul(b, d))

    def test_associativity_of_flattening(self):
        rng = random.Random(5)
        a = random_qmatrix(rng, 2, 2)
        b = random_qmatrix(rng, 2, 3)
        c = random_qmatrix(rng, 3, 1)
        assert schoolbook_kron(schoolbook_kron(a, b), c) == \
            schoolbook_kron(a, schoolbook_kron(b, c))

    def test_kron_power(self):
        a = QMatrix(1, 2, [1, 1])
        assert kron_power(a, 0) == identity_matrix(1)
        assert kron_power(a, 3) == QMatrix(1, 8, [1] * 8)

    def test_transpose_compatible(self):
        rng = random.Random(9)
        a = random_qmatrix(rng, 2, 3)
        b = random_qmatrix(rng, 3, 2)
        assert schoolbook_kron(a, b).transpose() == \
            schoolbook_kron(a.transpose(), b.transpose())


class TestKernelRank:
    def test_zero_matrix(self):
        assert rank(zero_matrix(3, 3)) == 0

    def test_identity(self):
        assert rank(identity_matrix(4)) == 4

    def test_rank_one_hand_example(self):
        assert rank(QMatrix(2, 2, [1, 1, 1, 1])) == 1

    def test_rank_nullity(self):
        # against the kernel the dense oracle finds, checked to be one
        rng = random.Random(13)
        for _ in range(15):
            a = random_qmatrix(rng, 3, 4)
            k = dense_kernel_basis(a)
            assert rank(a) + k.cols == 4
            assert not any(matmul(a, k).entries)

    @pytest.mark.parametrize("entries", [mixed_rationals, unit_entries,
                                         integer_entries],
                             ids=["mixed", "unit", "integer"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_dense_fraction_oracle(self, entries, data):
        a = data.draw(matrices_of(entries))
        assert rank(a) == len(dense_row_echelon(a)[1])

    def test_non_unit_pivot_divides_exactly(self):
        rows = _echelon_rows(QMatrix(1, 2, [2, 1]))
        assert rows == {0: {0: 1, 1: Fraction(1, 2)}}
        assert not any(isinstance(x, float) for x in rows[0].values())

    def test_unit_pivots_stay_integers(self):
        # the incidence matrix of the complete directed graph on 5 vertices
        # is totally unimodular: every pivot is +-1, no row is divided
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        d = QMatrix(5, len(edges), [(v == j) - (v == i) for v in range(5)
                                    for i, j in edges])
        rows = _echelon_rows(d)
        assert len(rows) == 4
        assert all(type(x) is int for row in rows.values()
                   for x in row.values())

    def test_empty_shapes(self):
        assert rank(zero_matrix(0, 3)) == 0
        assert rank(zero_matrix(3, 0)) == 0


def _random_complex(rng) -> ChainComplex:
    """A three-term complex with d1 arbitrary and d2 through its kernel."""
    d1 = random_qmatrix(rng, rng.randint(1, 3), rng.randint(1, 4))
    k = dense_kernel_basis(d1)
    mixer = random_qmatrix(rng, k.cols, rng.randint(1, 3), num_bound=2)
    d2 = matmul(k, mixer)
    dims = {0: d1.rows, 1: d1.cols, 2: d2.cols}
    return ChainComplex(0, 2, dims, {1: d1, 2: d2})


class TestChainComplex:
    def test_dd_zero_enforced(self):
        d1 = QMatrix(1, 1, [1])
        d2 = QMatrix(1, 1, [1])
        with pytest.raises(ValueError):
            ChainComplex(0, 2, {0: 1, 1: 1, 2: 1}, {1: d1, 2: d2})

    def test_shapes_enforced(self):
        with pytest.raises(ValueError):
            ChainComplex(0, 1, {0: 2, 1: 1}, {1: identity_matrix(1)})

    def test_single_degree(self):
        c = single_degree_complex(1)
        assert c.homology_dims() == {0: 1}

    def test_acyclic_identity(self):
        c = ChainComplex(0, 1, {0: 1, 1: 1}, {1: identity_matrix(1)})
        assert c.homology_dims() == {0: 0, 1: 0}

    def test_cover_complex_by_hand(self):
        # cover {a,b}, {b,c}: degree 0 is Q^2 + Q^2, degree 1 the overlap {b}
        d1 = QMatrix(4, 1, [0, -1, 1, 0])
        c = ChainComplex(0, 1, {0: 4, 1: 1}, {1: d1})
        assert c.homology_dims() == {0: 3, 1: 0}

    def test_euler_characteristic_equals_alternating_homology(self):
        rng = random.Random(23)
        for _ in range(12):
            c = _random_complex(rng)
            hom = c.homology_dims()
            alt = sum((-1) ** n * hom[n] for n in hom)
            assert c.euler_characteristic() == alt

    def test_homology_matches_the_dense_oracle(self):
        rng = random.Random(31)
        for _ in range(12):
            c = _random_complex(rng)
            assert c.homology_dims() == dense_homology(c)

    def test_zero_differentials_are_not_stored(self):
        # 0-row, 0-column and all-zero differentials alike
        dims = {0: 1, 1: 0, 2: 2, 3: 1}
        c = ChainComplex(0, 3, dims, {1: zero_matrix(1, 0),
                                      2: zero_matrix(0, 2),
                                      3: zero_matrix(2, 1)})
        assert c.differentials == {}
        assert c == ChainComplex(0, 3, dims, {})
        assert complex_json(c)["differentials"] == {}
        assert c.homology_dims() == dense_homology(c) == dims

    def test_dimension_outside_the_range_rejected(self):
        with pytest.raises(ValueError, match=r"^dimension in degree 1 "
                           r"outside degree range \[0, 0\]$"):
            ChainComplex(0, 0, {0: 1, 1: 5}, {})

    def test_json_round_trip(self):
        rng = random.Random(29)
        c = _random_complex(rng)
        assert ChainComplex.from_json(complex_json(c)) == c


def cube_with_entry(value) -> dict:
    """`hocolim` input: two points covering one, the edges' 1x1 blocks
    holding `value` and 1."""
    point = {"lo": 0, "hi": 0, "dims": {"0": 1}, "differentials": {}}
    return {"index_size": 2, "vertices": {"0": point, "1": point,
                                         "0,1": point},
            "edges": {"0,1->0": {"0": {"rows": 1, "cols": 1,
                                       "entries": [value]}},
                      "0,1->1": {"0": {"rows": 1, "cols": 1,
                                       "entries": [1]}}}}


class TestSharedRecords:
    """Equal int/str matrix records, and equal vertex complexes, read to
    one value per process; what is refused is refused every time."""

    @pytest.mark.parametrize("bad", [True, 1.0, None, [1]],
                             ids=["true", "float", "null", "list"])
    def test_a_cached_record_keeps_json_types_apart(self, bad, tmp_path):
        for one in ("1", 1):  # an untyped key would admit True and 1.0
            QMatrix.from_json({"rows": 1, "cols": 1, "entries": [one]})
        message = ("entries[0] must be an integer or a rational string, "
                   f"got {show(bad)}")
        for _ in range(2):
            with pytest.raises(InputError) as exc_info:
                QMatrix.from_json({"rows": 1, "cols": 1, "entries": [bad]})
            assert (exc_info.value.path, str(exc_info.value)) == (
                "entries[0]", message)
        for entry, status, text in (("1", 0, None), (bad, 2, (
                'error: {}: edges["0,1->0"]["0"].' + message))):
            path = tmp_path / "cube.json"
            path.write_text(json.dumps(cube_with_entry(entry)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["hocolim", "--diagram", str(path)]) == status
            if text:
                assert out.getvalue() == text.format(path) + "\n"

    @pytest.mark.parametrize("entry", [1, "01", " 1", "2/2"])
    def test_equal_entries_of_other_forms_read_to_equal_values(self, entry):
        one = QMatrix.from_json({"rows": 1, "cols": 1, "entries": ["1"]})
        other = QMatrix.from_json({"rows": 1, "cols": 1, "entries": [entry]})
        assert other == one == QMatrix(1, 1, [1])
        assert type(other.entries[0]) is int

    def test_equal_records_read_to_one_value(self):
        record = {"rows": 2, "cols": 1, "entries": ["1", "-1/2"]}
        a = QMatrix.from_json(record)
        assert QMatrix.from_json(json.loads(json.dumps(record))) is a
        vertex = {"lo": 0, "hi": 1, "dims": {"0": 2, "1": 1},
                  "differentials": {"1": record}}
        c = ChainComplex.from_json(vertex)
        assert ChainComplex.from_json(json.loads(json.dumps(vertex))) is c
        assert c.differentials == {1: a} and c.differentials[1] is a

    def test_a_complex_refused_for_dd_is_refused_every_time(self):
        one = {"rows": 1, "cols": 1, "entries": [1]}
        vertex = {"lo": 0, "hi": 2, "dims": {"0": 1, "1": 1, "2": 1},
                  "differentials": {"1": one, "2": one}}
        for _ in range(2):
            with pytest.raises(InputError, match=r"^top-level value is not a "
                               r"chain complex: d_1 o d_2 != 0$"):
                ChainComplex.from_json(vertex)

    def test_the_caches_are_bounded(self):
        bound = qlinalg._SHARED
        for n in range(bound + 10):
            QMatrix.from_json({"rows": 1, "cols": 1, "entries": [n + 2]})
            ChainComplex.from_json({"lo": 0, "hi": 0, "dims": {"0": n},
                                    "differentials": {}})
        for cache in (qlinalg._shared_matrix, qlinalg._shared_complex):
            assert cache.cache_info().maxsize == bound
            assert cache.cache_info().currsize == bound
