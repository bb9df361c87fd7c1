"""Prime-field helpers: modular square roots and a fixed 64-round
Miller-Rabin primality test.  Field inversion lives with the group law in
``mecdsa._kernels``.

Everything here is a plain function, safe to share between threads without
locks.  None of it is constant-time; see the README for the security
posture.
"""

import random

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Witness bases come from a fast PRNG seeded once from system entropy;
# per-call SystemRandom draws would cost one syscall per round.
_MR_RNG = random.Random(random.SystemRandom().getrandbits(128))


def sqrt_mod(a: int, p: int) -> "int | None":
    """Some y with y*y = a (mod p) for odd prime p, or None.

    Uses the exponentiation shortcut when p = 3 (mod 4) and Tonelli-Shanks
    otherwise.  Which of the two roots comes back is unspecified; callers
    that care about parity (point decompression) pick for themselves.
    Raises ValueError for a composite p that Tonelli-Shanks would loop on.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        y = pow(a, (p + 1) // 4, p)
        return y if y * y % p == a else None
    if not is_probable_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    y = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        y = y * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    return y


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with 64 random bases: a composite passes with
    probability at most 4^-64.

    False for anything below 2 and for even n > 2.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(64):
        a = _MR_RNG.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
