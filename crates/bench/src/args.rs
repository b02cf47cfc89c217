//! Positional command-line arguments of the experiment binaries.
//!
//! Every `exp_*` binary takes a few optional positionals (`[repeats]
//! [seed]`, …). An absent argument takes the binary's default; a value
//! that does not parse, or an argument past the last one the binary
//! reads, prints the usage line to stderr and exits with status 2 —
//! a typo'd size must not silently run the default experiment.

use std::str::FromStr;

/// A cursor over the positional arguments, read left to right.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// The process's arguments after the program name. `usage` is the
    /// binary's usage line, e.g. `"exp_r1_loss_sweep [repeats] [seed]"`.
    pub fn from_env(usage: &'static str) -> Args {
        Args::new(usage, std::env::args().skip(1).collect())
    }

    fn new(usage: &'static str, values: Vec<String>) -> Args {
        Args {
            usage,
            rest: values.into_iter(),
        }
    }

    /// The next argument, or `default` when the command line has ended.
    pub fn or<T: FromStr>(&mut self, default: T) -> T {
        self.optional().unwrap_or(default)
    }

    /// The next argument, if the command line has one.
    pub fn optional<T: FromStr>(&mut self) -> Option<T> {
        self.try_next().unwrap_or_else(|e| self.reject(&e))
    }

    /// Call after the last argument is read: anything left is an error.
    pub fn done(mut self) {
        if let Err(e) = self.try_done() {
            self.reject(&e)
        }
    }

    fn try_next<T: FromStr>(&mut self) -> Result<Option<T>, String> {
        match self.rest.next() {
            None => Ok(None),
            Some(raw) => match raw.parse() {
                Ok(value) => Ok(Some(value)),
                Err(_) => Err(format!("cannot read argument {raw:?}")),
            },
        }
    }

    fn try_done(&mut self) -> Result<(), String> {
        match self.rest.next() {
            None => Ok(()),
            Some(raw) => Err(format!("unexpected argument {raw:?}")),
        }
    }

    fn reject(&self, error: &str) -> ! {
        eprintln!("{error}\nusage: {}", self.usage);
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(values: &[&str]) -> Args {
        Args::new(
            "exp [repeats] [seed]",
            values.iter().map(|v| v.to_string()).collect(),
        )
    }

    #[test]
    fn absent_arguments_take_the_default() {
        let mut a = args(&[]);
        assert_eq!(a.or(20usize), 20);
        assert_eq!(a.optional::<f64>(), None);
        assert_eq!(a.try_done(), Ok(()));
    }

    #[test]
    fn present_arguments_override_in_order() {
        let mut a = args(&["8", "7", "0.5"]);
        assert_eq!(a.or(20usize), 8);
        assert_eq!(a.or(1u64), 7);
        assert_eq!(a.optional(), Some(0.5f64));
        assert_eq!(a.try_done(), Ok(()));
    }

    #[test]
    fn a_value_that_does_not_parse_is_an_error_not_the_default() {
        for raw in ["abc", "-3", "1.5", ""] {
            let err = args(&[raw]).try_next::<usize>().unwrap_err();
            assert!(err.contains(&format!("{raw:?}")), "{err}");
        }
    }

    #[test]
    fn surplus_arguments_are_an_error() {
        let mut a = args(&["8", "1", "extra"]);
        assert_eq!((a.or(20usize), a.or(1u64)), (8, 1));
        assert_eq!(
            a.try_done(),
            Err("unexpected argument \"extra\"".to_string())
        );
    }
}
