"""Classical building blocks: puncturable PRF, k-wise functions, one-time signatures."""
