import pytest

from supernilhecke import symgroup as sg


def test_length_basics():
    assert sg.length((1, 2, 3)) == 0
    assert sg.length(sg.simple(3, 1)) == 1
    assert sg.length(sg.longest_element(3)) == 3


def test_longest_element():
    assert sg.longest_element(1) == (1,)
    assert sg.longest_element(3) == (3, 2, 1)
    assert sg.evaluate_word(3, (1, 2, 1)) == sg.longest_element(3)
    assert sg.longest_element(0) == ()
    with pytest.raises(ValueError):
        sg.longest_element(-1)


def test_compose_inverse():
    for n in (1, 2, 3, 4):
        for p in sg.all_permutations(n):
            assert sg.compose(p, sg.inverse(p)) == sg.identity(n)
            assert sg.compose(sg.inverse(p), p) == sg.identity(n)


def test_reduced_word_evaluates_back():
    for n in (1, 2, 3, 4, 5):
        for p in sg.all_permutations(n):
            w = sg.reduced_word(p)
            assert len(w) == sg.length(p)
            assert sg.evaluate_word(n, w) == p


def test_left_adjusted_paper_example():
    # the 4-cycle sending 1 -> 3 -> 2 -> 4 -> 1
    p = (3, 4, 2, 1)
    assert sg.left_adjusted_word(p) == (2, 3, 1, 2, 1)
    assert sg.is_left_adjusted(4, (2, 3, 1, 2, 1))
    assert sg.is_left_adjusted(4, (2, 1, 3, 2, 1))
    assert not sg.is_left_adjusted(4, (2, 3, 2, 1, 2))
    assert not sg.is_left_adjusted(4, (3, 2, 3, 1, 2))


def test_left_adjusted_word_properties():
    for n in (1, 2, 3, 4, 5):
        for p in sg.all_permutations(n):
            w = sg.left_adjusted_word(p)
            assert sg.evaluate_word(n, w) == p
            assert len(w) == sg.length(p)
            if n <= 4:
                assert sg.is_left_adjusted(n, w)


def test_is_left_adjusted_rejects_non_reduced():
    with pytest.raises(ValueError):
        sg.is_left_adjusted(3, (1, 1))


def test_all_reduced_words():
    assert sg.all_reduced_words((2, 1)) == {(1,)}
    assert sg.all_reduced_words((3, 2, 1)) == {(1, 2, 1), (2, 1, 2)}
    assert len(sg.all_reduced_words(sg.longest_element(4))) == 16
    for n in (2, 3, 4):
        for p in sg.all_permutations(n):
            for w in sg.all_reduced_words(p):
                assert sg.evaluate_word(n, w) == p
                assert len(w) == sg.length(p)


def test_all_reduced_words_guard():
    with pytest.raises(ValueError):
        sg.all_reduced_words(sg.longest_element(7))


def test_partition_word_paper_example():
    s, factors, minima = sg.partition_word(4, (2, 3, 1, 2, 1))
    assert minima == (1, 2, 1, 1)
    assert factors == [(), (), (2, 3, 1), (2, 1), ()]
    assert s == (1, 2, 3, 4)


def test_partition_word_identity():
    s, factors, minima = sg.partition_word(3, ())
    assert s == (1, 2, 3)
    assert factors == [(), (), (), ()]
    assert minima == (1, 2, 3)


def test_partition_word_reassembles():
    for n in range(1, 6):
        for p in sg.all_permutations(n):
            w = sg.left_adjusted_word(p)
            s, factors, minima = sg.partition_word(n, w)
            flat = tuple(x for f in factors for x in f)
            assert flat == w
            assert sg.evaluate_word(n, flat) == p
            # the defining property: the prefix up to each cut is the first
            # prefix at which its strand reaches its minimum
            for k in range(1, n + 1):
                strand = s[k - 1]
                cut = sum(len(f) for f in factors[:k])
                images = [sg.evaluate_word(n, w[:j])[strand - 1] for j in range(cut + 1)]
                assert images[cut] == minima[strand - 1]
                assert min(images[:cut], default=n + 1) > minima[strand - 1]


def test_partition_word_rejects_non_left_adjusted():
    with pytest.raises(ValueError):
        sg.partition_word(4, (2, 3, 2, 1, 2))


def test_coset_split():
    for n in range(2, 7):
        for p in sg.all_permutations(n):
            pprime, a = sg.coset_split(p)
            assert len(pprime) == n - 1
            word = sg.coset_word(n, a)
            recomposed = sg.compose(pprime + (n,), sg.evaluate_word(n, word))
            assert recomposed == p
            assert sg.length(p) == sg.length(pprime) + (n - a)


def test_perms_by_length():
    assert sg.perms_by_length(3) == {0: 1, 1: 2, 2: 2, 3: 1}
    counts = sg.perms_by_length(4)
    assert sum(counts.values()) == 24
    assert counts[6] == 1
