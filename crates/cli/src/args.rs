//! Minimal `--key value` argument parsing (no external dependency).

use std::collections::BTreeMap;

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: [&str; 2] = ["threads", "obs-out"];

/// Parsed `--key value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses alternating `--key value` tokens; rejects stray positionals,
    /// flags without values, and flags outside `known` and the global
    /// `--threads` / `--obs-out`, so a misspelt flag cannot silently fall
    /// back to a default.
    pub fn parse(tokens: &[String], known: &[&str]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{tok}'"))?;
            if !known.contains(&key) && !GLOBAL_FLAGS.contains(&key) {
                return Err(format!("unknown flag --{key} for this subcommand"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            values.insert(key.to_string(), value.clone());
        }
        Ok(Args { values })
    }

    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn get(&self, key: &str) -> Option<String> {
        self.values.get(key).cloned()
    }

    /// An optional usize flag.
    pub fn get_usize(&self, key: &str) -> Result<Option<usize>, String> {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("flag --{key}: invalid number '{v}' ({e})"))
            })
            .transpose()
    }

    /// An optional u64 flag.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("flag --{key}: invalid number '{v}' ({e})"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const KNOWN: &[&str] = &["input", "epochs", "missing"];

    #[test]
    fn parses_pairs() {
        let a = Args::parse(&toks(&["--input", "g.txt", "--epochs", "10"]), KNOWN).unwrap();
        assert_eq!(a.require("input").unwrap(), "g.txt");
        assert_eq!(a.get_usize("epochs").unwrap(), Some(10));
        assert_eq!(a.get_usize("absent").unwrap(), None);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&toks(&["positional"]), KNOWN).is_err());
        assert!(Args::parse(&toks(&["--epochs"]), KNOWN).is_err());
        let a = Args::parse(&toks(&["--epochs", "abc"]), KNOWN).unwrap();
        assert!(a.get_usize("epochs").is_err());
        assert!(a.require("missing").is_err());
    }

    #[test]
    fn rejects_flags_the_subcommand_does_not_read() {
        let err = Args::parse(&toks(&["--epoch", "5"]), KNOWN).unwrap_err();
        assert!(err.contains("--epoch "), "{err}");
        let a = Args::parse(&toks(&["--threads", "2", "--obs-out", "o.jsonl"]), KNOWN).unwrap();
        assert_eq!(a.get_usize("threads").unwrap(), Some(2));
    }
}
