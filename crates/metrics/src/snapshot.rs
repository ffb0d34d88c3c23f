//! One snapshot/merge interface for the ad-hoc counter blocks
//! (`FaultTotals`, `RemoteCounters`, `WearCounters`, ...).
//!
//! Every subsystem used to hand-roll the same two things for its
//! counter struct: a field-wise `absorb` and a field-by-field JSON
//! renderer. [`CounterSnapshot`] centralizes the shape — implementors
//! list their fields once via [`counter_snapshot!`] and the
//! render/merge plumbing falls out of the field list, in a stable
//! declared order (which is what keeps the byte-identical report
//! contracts honest).

use ddc_json::Json;

/// A plain block of `u64` counters that can be snapshotted into JSON
/// and merged field-wise.
pub trait CounterSnapshot: Default {
    /// Stable subsystem name (used as a JSON key / report label).
    const NAME: &'static str;

    /// `(field name, value)` pairs in declared order — the JSON render
    /// order.
    fn fields(&self) -> Vec<(&'static str, u64)>;

    /// Sets one field by name; `false` if the name is unknown.
    fn set_field(&mut self, name: &str, value: u64) -> bool;

    /// Field-wise accumulation of another snapshot.
    fn absorb(&mut self, other: &Self);
}

/// Implements [`CounterSnapshot`] for a struct of `u64` fields. The
/// field list is the single source of truth for merge order and JSON
/// render order.
#[macro_export]
macro_rules! counter_snapshot {
    ($ty:ty, $name:literal, { $($field:ident),+ $(,)? }) => {
        impl $crate::CounterSnapshot for $ty {
            const NAME: &'static str = $name;

            fn fields(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![$((stringify!($field), self.$field)),+]
            }

            fn set_field(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($field) => {
                        self.$field = value;
                        true
                    })+
                    _ => false,
                }
            }

            fn absorb(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

/// Renders a snapshot as a JSON object, fields in declared order.
pub fn snapshot_json<T: CounterSnapshot>(t: &T) -> Json {
    let mut o = Json::object();
    for (name, value) in t.fields() {
        o.set(name, value);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, PartialEq, Debug)]
    struct Demo {
        alpha: u64,
        beta: u64,
    }
    counter_snapshot!(Demo, "demo", { alpha, beta });

    #[test]
    fn fields_render_parse_roundtrip() {
        let d = Demo { alpha: 3, beta: 9 };
        assert_eq!(Demo::NAME, "demo");
        assert_eq!(d.fields(), vec![("alpha", 3), ("beta", 9)]);
        let json = snapshot_json(&d);
        let text = json.to_string();
        assert_eq!(text, r#"{"alpha":3,"beta":9}"#);
        assert_eq!(Json::parse(&text), Ok(json));
    }

    #[test]
    fn absorb_is_field_wise() {
        let mut a = Demo { alpha: 1, beta: 2 };
        a.absorb(&Demo {
            alpha: 10,
            beta: 20,
        });
        assert_eq!(
            a,
            Demo {
                alpha: 11,
                beta: 22
            }
        );
    }

    #[test]
    fn set_field_rejects_unknown() {
        let mut d = Demo::default();
        assert!(d.set_field("alpha", 5));
        assert!(!d.set_field("gamma", 5));
        assert_eq!(d.alpha, 5);
    }
}
