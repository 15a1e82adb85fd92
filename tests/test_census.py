"""Census identities over every free tree of order n <= 12, against generating functions.

With w over the vertices of T, summing over ``all_trees(n)``:

- Cayley: sum n!/|Aut(T)| = n^(n-2), the labeled trees;
- sum over T and w of |Aut(T,w)|/|Aut(T)| = r_n, the rooted trees (w's orbit has |Aut(T)|/|Aut(T,w)| vertices);
- #{T : |Aut(T)| = 1} = [x^n] F_1, the asymmetric trees;
- sum a(T) = [x^n] F_2, the asymmetric 2-colored trees;
- sum over T and w of a(T,w)·|Aut(T,w)|/|Aut(T)| = [x^n] B_2, the asymmetric 2-colored rooted trees.

B_c = c·x·prod_k (1 + x^k)^(b_k), with b_k = [x^k] B_c, counts the asymmetric rooted trees whose vertices
take one of c colors; F_c = B_c - (B_c^2 + B_c(x^2))/2 counts the free ones (Harary and Prins 1959), and
R = x·prod_k (1 - x^k)^(-r_k) counts the rooted trees (Cayley, Polya). The series come from these
recurrences; only r_n and [x^n] F_1 are pinned, to OEIS A000081 and A000220.
"""

from fractions import Fraction
from math import comb, factorial

from treesym import all_trees, asym_rooted, asym_unrooted, aut_order, aut_order_rooted, root_at
from treesym.corpus import ALL_TREES_MAX

N = ALL_TREES_MAX


def rooted_series(c: int, factor) -> list[int]:
    """s_0..s_N of S = c·x·prod_k sum_j factor(s_k, j)·x^(kj): s_n is c times [x^(n-1)] of the product over k < n."""
    s, prod = [0], [1] + [0] * N
    for n in range(1, N + 1):
        s.append(c * prod[n - 1])
        prod = [sum(prod[i - n * j] * factor(s[n], j) for j in range(i // n + 1)) for i in range(N + 1)]
    return s


def asymmetric_rooted(c: int) -> list[int]:
    return rooted_series(c, comb)  # (1 + x^k)^b: each class of branches is taken at most once


def asymmetric_free(c: int) -> list[int]:
    b = asymmetric_rooted(c)
    return [b[n] - (sum(b[i] * b[n - i] for i in range(n + 1)) + (b[n // 2] if n % 2 == 0 else 0)) // 2
            for n in range(N + 1)]


ROOTED = rooted_series(1, lambda r, j: comb(r + j - 1, j))  # (1 - x^k)^(-r): a multiset of branches


def test_series_match_the_pinned_counts():
    assert ROOTED[1:] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]
    assert asymmetric_free(1)[1:] == [1, 0, 0, 0, 0, 0, 1, 1, 3, 6, 15, 29]


def test_census_identities_over_every_free_tree():
    asym_free, colored_free, colored_rooted = asymmetric_free(1), asymmetric_free(2), asymmetric_rooted(2)
    for n in range(1, N + 1):
        labeled, rooted, asymmetric, a_sum, a_rooted_sum = Fraction(0), Fraction(0), 0, 0, Fraction(0)
        for t in all_trees(n):
            aut = aut_order(t)
            labeled += Fraction(factorial(n), aut)
            asymmetric += aut == 1
            a_sum += asym_unrooted(t)
            for w in range(n):
                # a(T,w) through asym_rooted, the walk to the center (canon._at_root)
                rt = root_at(t, w)
                orbit_share = Fraction(aut_order_rooted(rt), aut)
                rooted += orbit_share
                a_rooted_sum += asym_rooted(rt) * orbit_share
        assert labeled == Fraction(n) ** (n - 2), n
        assert rooted == ROOTED[n], n
        assert asymmetric == asym_free[n], n
        assert a_sum == colored_free[n], n
        assert a_rooted_sum == colored_rooted[n], n
