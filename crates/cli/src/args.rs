//! The one command-line parser of the workspace's binaries: `--key value`
//! flags, bare `--switch`es and positionals (no external dependency).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `tokens` against what the command reads: the flags in
    /// `values` take a value, the ones in `switches` stand alone (names
    /// without the leading `--`), and up to `max_positionals` bare words
    /// are kept in order. Any other flag, a value flag without its value
    /// and a surplus positional are errors naming the token, so a misspelt
    /// flag cannot silently fall back to a default.
    pub fn parse(
        tokens: &[String],
        values: &[&str],
        switches: &[&str],
        max_positionals: usize,
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                if args.positionals.len() == max_positionals {
                    return Err(format!("unexpected argument '{tok}'"));
                }
                args.positionals.push(tok.clone());
                continue;
            };
            if switches.contains(&key) {
                args.switches.push(key.to_string());
            } else if values.contains(&key) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                args.values.insert(key.to_string(), value.clone());
            } else {
                return Err(format!("unknown flag --{key} for this command"));
            }
        }
        Ok(args)
    }

    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn get(&self, key: &str) -> Option<String> {
        self.values.get(key).cloned()
    }

    /// An optional flag parsed as `T`; a value that does not parse is an
    /// error naming the flag.
    pub fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("flag --{key}: invalid value '{v}' ({e})"))
            })
            .transpose()
    }

    /// Overwrites `field` with flag `key`'s parsed value when the flag was
    /// given, so a command can start from its library defaults and
    /// override only the flags passed.
    pub fn update<T: FromStr>(&self, key: &str, field: &mut T) -> Result<(), String>
    where
        T::Err: Display,
    {
        if let Some(value) = self.value(key)? {
            *field = value;
        }
        Ok(())
    }

    /// Whether the bare switch `key` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// The positionals, in command-line order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
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
        let a = Args::parse(
            &toks(&["--input", "g.txt", "--epochs", "10"]),
            KNOWN,
            &[],
            0,
        )
        .unwrap();
        assert_eq!(a.require("input").unwrap(), "g.txt");
        assert_eq!(a.value::<usize>("epochs").unwrap(), Some(10));
        assert_eq!(a.value::<usize>("absent").unwrap(), None);
        let (mut epochs, mut absent) = (1usize, 2usize);
        a.update("epochs", &mut epochs).unwrap();
        a.update("absent", &mut absent).unwrap();
        assert_eq!((epochs, absent), (10, 2));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&toks(&["positional"]), KNOWN, &[], 0).is_err());
        assert!(Args::parse(&toks(&["--epochs"]), KNOWN, &[], 0).is_err());
        let a = Args::parse(&toks(&["--epochs", "abc"]), KNOWN, &[], 0).unwrap();
        let err = a.value::<usize>("epochs").unwrap_err();
        assert!(err.contains("--epochs") && err.contains("abc"), "{err}");
        assert!(a.require("missing").is_err());
    }

    #[test]
    fn rejects_flags_the_subcommand_does_not_read() {
        let err = Args::parse(&toks(&["--epoch", "5"]), KNOWN, &[], 0).unwrap_err();
        assert!(err.contains("--epoch "), "{err}");
        // A switch the command does not read is as unknown as a value flag.
        let err = Args::parse(&toks(&["--fast"]), KNOWN, &[], 0).unwrap_err();
        assert!(err.contains("--fast "), "{err}");
    }

    #[test]
    fn switches_and_positionals() {
        let tokens = toks(&["verify", "--fast", "a", "--epochs", "3", "b"]);
        let a = Args::parse(&tokens, KNOWN, &["fast"], 3).unwrap();
        assert!(a.switch("fast") && !a.switch("slow"));
        assert_eq!(a.positionals(), ["verify", "a", "b"]);
        assert_eq!(a.value::<u64>("epochs").unwrap(), Some(3));
        // A switch never swallows the next token as its value.
        let a = Args::parse(&toks(&["--fast", "x"]), KNOWN, &["fast"], 1).unwrap();
        assert_eq!(a.positionals(), ["x"]);
        let err = Args::parse(&tokens, KNOWN, &["fast"], 2).unwrap_err();
        assert!(err.contains("'b'"), "{err}");
    }
}
