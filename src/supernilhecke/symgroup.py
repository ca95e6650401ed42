"""
Permutations of {1, ..., n} and words in the simple transpositions s_1, ..., s_{n-1}.

Permutations are tuples in one-line notation: `p[k-1]` is the image of `k`.
Words are tuples of generator indices, stored bottom-to-top: the first letter
is the one applied first, so a word `(i_1, ..., i_r)` denotes the product
s_{i_r} ... s_{i_1} under the composition convention (st)(k) = s(t(k)).

>>> evaluate_word(3, (1, 2))       # s_2 s_1
(3, 1, 2)
>>> length((3, 1, 2))
2
"""
from __future__ import annotations

import itertools
from functools import lru_cache

Perm = tuple[int, ...]
Word = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def simple(n: int, i: int) -> Perm:
    """The simple transposition s_i = (i  i+1) in S_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple transposition index {i} out of range for S_{n}")
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def compose(p: Perm, q: Perm) -> Perm:
    """(p q)(k) = p(q(k))."""
    return tuple(p[q[k] - 1] for k in range(len(p)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for k, v in enumerate(p):
        inv[v - 1] = k + 1
    return tuple(inv)


@lru_cache(maxsize=None)
def length(p: Perm) -> int:
    """Number of inversions of p.

    >>> length((3, 2, 1))
    3
    """
    n = len(p)
    return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])


def longest_element(n: int) -> Perm:
    """The order-reversing permutation k -> n+1-k.

    >>> longest_element(3)
    (3, 2, 1)
    """
    if n < 0:
        raise ValueError("longest_element needs n >= 0")
    return tuple(range(n, 0, -1))


def apply_word_letter(p: Perm, i: int) -> Perm:
    """Left-multiply p by s_i."""
    q = list(p)
    for k in range(len(q)):
        if q[k] == i:
            q[k] = i + 1
        elif q[k] == i + 1:
            q[k] = i
    return tuple(q)


def evaluate_word(n: int, letters: Word) -> Perm:
    p = identity(n)
    for i in letters:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} out of range for S_{n}")
        p = apply_word_letter(p, i)
    return p


@lru_cache(maxsize=None)
def reduced_word(p: Perm) -> Word:
    """Some reduced word for p (greedy descent removal), bottom-to-top."""
    q = list(p)
    letters = []
    n = len(q)
    done = False
    while not done:
        done = True
        for k in range(n - 1):
            if q[k] > q[k + 1]:
                q[k], q[k + 1] = q[k + 1], q[k]
                letters.append(k + 1)
                done = False
    # Recorded swaps sort p to the identity by right multiplication, so the
    # recorded order is already bottom-to-top for p itself.
    return tuple(letters)


@lru_cache(maxsize=None)
def _all_reduced_words_cached(p: Perm) -> frozenset[Word]:
    if length(p) == 0:
        return frozenset({()})
    n = len(p)
    words = set()
    inv = inverse(p)
    for i in range(1, n):
        # left descent: l(s_i p) = l(p) - 1
        if inv[i - 1] > inv[i]:
            for w in _all_reduced_words_cached(apply_word_letter(p, i)):
                words.add(w + (i,))
    return frozenset(words)


def all_reduced_words(p: Perm) -> frozenset[Word]:
    """All reduced words of p; guarded to n <= 6.

    >>> sorted(all_reduced_words((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    """
    if len(p) > 6:
        raise ValueError("all_reduced_words is limited to n <= 6")
    return _all_reduced_words_cached(tuple(p))


def _strand_minima(n: int, letters: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each strand k, the least image of k over all prefixes of the word,
    and the first prefix length reaching it (0 for the empty prefix)."""
    track = identity(n)  # track[k-1] = current image of k
    minima, first = list(track), [0] * n
    for pos, i in enumerate(letters, start=1):
        track = apply_word_letter(track, i)
        for k in range(n):
            if track[k] < minima[k]:
                minima[k], first[k] = track[k], pos
    return tuple(minima), tuple(first)


def prefix_minima(n: int, letters: Word) -> tuple[int, ...]:
    """For each k, the minimum of (prefix of the word)(k) over all prefixes."""
    return _strand_minima(n, letters)[0]


def left_adjusted_word(p: Perm) -> Word:
    """A left-adjusted reduced word for p, via the recursive coset
    factorization of S_n over S_{n-1}.

    >>> left_adjusted_word((3, 4, 2, 1))
    (2, 3, 1, 2, 1)
    """
    n = len(p)
    if n <= 1:
        return ()
    pprime, a = coset_split(p)
    return coset_word(n, a) + left_adjusted_word(pprime)


def is_left_adjusted(n: int, letters: Word) -> bool:
    """Check the prefix-minimum criterion against every reduced word of the
    same permutation (desk-scale enumeration)."""
    p = evaluate_word(n, letters)
    if length(p) != len(letters):
        raise ValueError("word is not reduced")
    mins = prefix_minima(n, letters)
    for other in all_reduced_words(p):
        other_mins = prefix_minima(n, other)
        if any(mins[k] > other_mins[k] for k in range(n)):
            return False
    return True


def partition_word(n: int, letters: Word):
    """Partition a left-adjusted word into factors between the positions where
    each strand reaches its leftmost point.

    Returns ``(s, factors, minima)`` where ``s`` is the bijection ordering the
    strands by the chosen positions t_k (ties broken by smaller k), ``factors``
    is a list of n+1 subwords multiplying bottom-to-top to the input word, and
    ``minima[k-1]`` is the leftmost position reached by strand k.
    """
    if not is_left_adjusted(n, letters):
        raise ValueError("word is not left-adjusted")
    minima, t = _strand_minima(n, letters)
    s = tuple(sorted(range(1, n + 1), key=lambda k: (t[k - 1], k)))
    cuts = [0] + [t[k - 1] for k in s] + [len(letters)]
    factors = [letters[cuts[j]:cuts[j + 1]] for j in range(n + 1)]
    return s, factors, minima


def coset_split(p: Perm) -> tuple[Perm, int]:
    """Write p in S_n as p' . (s_{n-1} ... s_a) with p' in S_{n-1}.

    Returns (p' as a permutation of n-1 letters, a); a = n when the coset part
    is empty.  Lengths add: l(p) = l(p') + (n - a).  In one-line notation p'
    is p with the value n deleted, and a is the position of n.

    >>> coset_split((3, 4, 2, 1))
    ((3, 2, 1), 2)
    """
    n = len(p)
    return tuple(v for v in p if v != n), p.index(n) + 1


def coset_word(n: int, a: int) -> Word:
    """Bottom-to-top word (a, a+1, ..., n-1) for the coset part s_{n-1}...s_a."""
    return tuple(range(a, n))


def all_permutations(n: int):
    return (tuple(p) for p in itertools.permutations(range(1, n + 1)))


def perms_by_length(n: int) -> dict[int, int]:
    """Number of permutations per length (coefficients of [n]!_{q^2}-ish)."""
    counts: dict[int, int] = {0: 1}
    for j in range(2, n + 1):
        new: dict[int, int] = {}
        for l, c in counts.items():
            for extra in range(j):
                new[l + extra] = new.get(l + extra, 0) + c
        counts = new
    return counts
