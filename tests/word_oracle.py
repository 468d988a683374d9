"""Word-level oracle for the odd generators, sharing no code with the package.

Elements are plain {exponent triple: coefficient} dicts.  Products and the
mirror are computed on words of generator indices 1..3 and sorted back to
normal form by bubble sort, so every sign comes from counting swaps.
"""

from fractions import Fraction


def word_normalize(word):
    """Bubble sort; each swap of distinct letters flips the sign."""
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
    return (word.count(1), word.count(2), word.count(3)), sign


def word_of(mono):
    return (1,) * mono[0] + (2,) * mono[1] + (3,) * mono[2]


def word_mul(fa, fb):
    """Odd-flavor product on coefficient dicts, by word concatenation."""
    out = {}
    for a, ca in fa.items():
        for b, cb in fb.items():
            mono, sign = word_normalize(word_of(a) + word_of(b))
            out[mono] = out.get(mono, Fraction(0)) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


def word_mirror(coeffs):
    """Anti-automorphism negating the letters, built letter by letter."""
    out = {}
    for mono, c in coeffs.items():
        reversed_word = ()
        acc = Fraction(c)
        for letter in word_of(mono):
            acc = acc * (-1) ** len(reversed_word) * (-1)
            reversed_word = (letter,) + reversed_word
        m, s = word_normalize(reversed_word)
        out[m] = out.get(m, Fraction(0)) + s * acc
    return {m: c for m, c in out.items() if c}
