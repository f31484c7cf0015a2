//! Minimal flag parsing (the workspace carries no CLI dependency).

use std::collections::HashMap;

/// Parsed command line: positional arguments plus `--flag value` /
/// `--flag` options. A one-letter flag may also be spelled `-x`.
#[derive(Debug, Default, Clone)]
pub struct Opts {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Opts {
    /// Splits arguments into positionals and flags. A flag consumes the
    /// next argument as its value unless that argument is itself a flag,
    /// in which case it is boolean-valued (`"true"`).
    pub fn parse(args: &[String]) -> Self {
        let mut out = Opts::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = flag_name(a) {
                let value = match args.get(i + 1) {
                    Some(v) if flag_name(v).is_none() => {
                        i += 1;
                        v.clone()
                    }
                    _ => "true".to_owned(),
                };
                out.flags.insert(name.to_owned(), value);
            } else {
                out.positional.push(a.clone());
            }
            i += 1;
        }
        out
    }

    /// Positional argument by index.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// String flag value.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{name}: `{v}`")),
        }
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Rejects what the command does not read: more than `positionals`
    /// arguments after the command name (`None`: any number), or a flag
    /// outside `flags`.
    ///
    /// # Errors
    ///
    /// Names the first unrecognised argument.
    pub fn reject_unknown(&self, positionals: Option<usize>, flags: &[&str]) -> Result<(), String> {
        let command = self.positional(0).unwrap_or_default();
        if let Some(extra) = positionals.and_then(|n| self.positional.get(n + 1)) {
            return Err(format!("unexpected argument `{extra}` for `dna {command}`"));
        }
        let mut unknown: Vec<&str> =
            self.flags.keys().map(String::as_str).filter(|f| !flags.contains(f)).collect();
        unknown.sort_unstable();
        match unknown.first() {
            Some(flag) => Err(format!("unrecognised option `--{flag}` for `dna {command}`")),
            None => Ok(()),
        }
    }
}

/// The flag an argument names: `--name`, or a one-letter `-x`. Anything
/// else, a negative number included, is a value or a positional.
fn flag_name(arg: &str) -> Option<&str> {
    if let Some(name) = arg.strip_prefix("--") {
        return Some(name);
    }
    arg.strip_prefix('-').filter(|n| n.len() == 1 && n.bytes().all(|b| b.is_ascii_alphabetic()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn mixed_positionals_and_flags() {
        let o = Opts::parse(&args(&["analyze", "x.ckt", "--seed", "7", "--quiet"]));
        assert_eq!(o.positional(0), Some("analyze"));
        assert_eq!(o.positional(1), Some("x.ckt"));
        assert_eq!(o.flag("seed"), Some("7"));
        assert!(o.has("quiet"));
        assert_eq!(o.num::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(o.num::<u64>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let o = Opts::parse(&args(&["--a", "--b", "v"]));
        assert_eq!(o.flag("a"), Some("true"));
        assert_eq!(o.flag("b"), Some("v"));
    }

    #[test]
    fn short_flags_take_values_and_negative_numbers_stay_values() {
        let o = Opts::parse(&args(&["topk", "x.ckt", "-k", "2", "--peel", "-o", "f", "--m", "-1"]));
        assert_eq!(o.num::<usize>("k", 10).unwrap(), 2);
        assert!(o.has("peel"));
        assert_eq!(o.flag("o"), Some("f"));
        assert_eq!(o.flag("m"), Some("-1"));
        assert_eq!(o.positional(2), None);
    }

    #[test]
    fn reject_unknown_names_unread_arguments() {
        let o = Opts::parse(&args(&["paths", "x.ckt", "-k", "3"]));
        assert!(o.reject_unknown(Some(1), &["k"]).is_ok());
        let e = o.reject_unknown(Some(1), &["margin"]).unwrap_err();
        assert!(e.contains("`--k`") && e.contains("dna paths"), "{e}");
        let o = Opts::parse(&args(&["paths", "x.ckt", "y.ckt"]));
        let e = o.reject_unknown(Some(1), &[]).unwrap_err();
        assert!(e.contains("`y.ckt`"), "{e}");
        assert!(o.reject_unknown(None, &[]).is_ok());
    }

    #[test]
    fn bad_number_reports_error() {
        let o = Opts::parse(&args(&["--k", "lots"]));
        assert!(o.num::<usize>("k", 1).is_err());
    }
}
