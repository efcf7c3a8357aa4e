"""Classical building blocks: puncturable PRF, one-time signatures."""
