#![forbid(unsafe_code)]
//! Library side of `cpgan-cli`: the command-line parser that the `cpgan`
//! binary and the `bench` table, figure and gate binaries share.

pub mod args;
