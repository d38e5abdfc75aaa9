//! Interned name atoms for environment lookups.
//!
//! Variable names are hashed once — at compile time for the bytecode
//! VM, per access for the test-only tree-walking oracle — into stable
//! 64-bit FNV-1a atoms, the same scheme (and constants) the dom/css
//! layers use for tag/id/class style atoms. Scope chains then key their bindings by
//! atom instead of by owned `String`, so a `GetVar` in a hot callback is
//! an integer probe rather than a string hash + compare per scope level.
//!
//! Like the style atoms, collisions are accepted as a design trade: a
//! 64-bit FNV over the handful of identifiers a handler uses makes an
//! accidental collision astronomically unlikely, and both backends use
//! the same atomization so any collision would at least be *consistent*
//! across the differential suite.

use greenweb_det::atom;

/// The [`greenweb_det::atom`] of `name` with kind `b'v'` (variables),
/// the format of `greenweb_dom`'s `tag_atom`/`id_atom`/
/// `class_atom`, so script names live in the same atom namespace without
/// colliding with any style atom.
pub fn name_atom(name: &str) -> u64 {
    atom(b'v', name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_are_stable_and_distinct() {
        assert_eq!(name_atom("x"), name_atom("x"));
        assert_ne!(name_atom("x"), name_atom("y"));
        assert_ne!(name_atom(""), name_atom("x"));
    }

    #[test]
    fn kind_prefix_separates_from_style_atoms() {
        // `greenweb_dom::tag_atom("div")` prefixes b't'; the variable
        // atom of the same string must differ because of the b'v' prefix.
        let tag = greenweb_det::atom(b't', "div");
        assert_ne!(name_atom("div"), tag);
    }
}
