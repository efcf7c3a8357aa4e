"""Decryptor-encryption compiler, role-swapped encryption, and game harnesses.

Layers, bottom up: a correctness-only mock functional encryption, a
correctness-only mock single-key decryptor scheme over subspace
banknotes, the compiler that wires them into a many-key scheme through
a re-encryption function, the role swap that turns the result into an
encryption scheme whose ciphertexts carry the quantum keys, and the
anti-piracy game harnesses that drive all of it with real threshold
measurements.
"""
