//! Rewriter-soundness property tests over seeded random programs.
//!
//! The properties — simplification preserves meaning, constant folding
//! is consistent, CCP-guided simplification is sound under the CCP, and
//! simplification never grows a term — run over seeded [`DetRng`]
//! programs, so the suite needs no external crates.

use ensemble_ir::eval::Evaluator;
use ensemble_ir::models::layer_defs;
use ensemble_ir::term::{Prim, Term};
use ensemble_ir::Val;
use ensemble_synth::{simplify, RewriteCtx};
use ensemble_util::{DetRng, Intern};
use std::collections::HashMap;

fn var(n: &str) -> Term {
    Term::Var(Intern::from(n))
}

fn state_field(n: &str) -> Term {
    Term::GetF(Box::new(var("state")), Intern::from(n))
}

/// A random integer-valued term over `x`, `y`, `state.a`, `state.b`, and
/// the 4-slot vector `state.v`, driven by [`DetRng`].
fn int_term(rng: &mut DetRng, depth: u32) -> Term {
    if depth == 0 || rng.chance(0.3) {
        return match rng.below(5) {
            0 => Term::Int(rng.range(0, 16) as i64 - 8),
            1 => var("x"),
            2 => var("y"),
            3 => state_field("a"),
            _ => state_field("b"),
        };
    }
    match rng.below(5) {
        0 => Term::Prim(
            Prim::Add,
            vec![int_term(rng, depth - 1), int_term(rng, depth - 1)],
        ),
        1 => Term::Prim(
            Prim::Sub,
            vec![int_term(rng, depth - 1), int_term(rng, depth - 1)],
        ),
        2 => Term::If(
            Box::new(bool_term(rng, depth - 1)),
            Box::new(int_term(rng, depth - 1)),
            Box::new(int_term(rng, depth - 1)),
        ),
        3 => Term::Let(
            Intern::from("z"),
            Box::new(int_term(rng, depth - 1)),
            Box::new(Term::Prim(
                Prim::Add,
                vec![var("z"), int_term(rng, depth - 1)],
            )),
        ),
        _ => {
            // VecGet(VecSet(state.v, i, x), i) + b — the read-through lemma.
            let i = rng.below(4) as i64;
            Term::Prim(
                Prim::Add,
                vec![
                    Term::Prim(
                        Prim::VecGet,
                        vec![
                            Term::Prim(
                                Prim::VecSet,
                                vec![state_field("v"), Term::Int(i), int_term(rng, depth - 1)],
                            ),
                            Term::Int(i),
                        ],
                    ),
                    int_term(rng, depth - 1),
                ],
            )
        }
    }
}

fn bool_term(rng: &mut DetRng, depth: u32) -> Term {
    let a = int_term(rng, depth);
    let b = int_term(rng, depth);
    match rng.below(3) {
        0 => Term::Prim(Prim::Eq, vec![a, b]),
        1 => Term::Prim(Prim::Lt, vec![a, b]),
        _ => Term::Prim(Prim::Not, vec![Term::Prim(Prim::Lt, vec![b, a])]),
    }
}

fn eval_with_env(t: &Term, x: i64, y: i64, a: i64, b: i64, v: [i64; 4]) -> Option<Val> {
    let defs = layer_defs();
    let mut ev = Evaluator::new(&defs);
    let mut env: HashMap<Intern, Val> = HashMap::new();
    env.insert(Intern::from("x"), Val::Int(x));
    env.insert(Intern::from("y"), Val::Int(y));
    env.insert(
        Intern::from("state"),
        Val::record(&[
            ("a", Val::Int(a)),
            ("b", Val::Int(b)),
            ("v", Val::Vector(v.iter().map(|&i| Val::Int(i)).collect())),
        ]),
    );
    ev.eval(t, &mut env).ok()
}

fn small(rng: &mut DetRng) -> i64 {
    rng.range(0, 10) as i64 - 5
}

fn small_vec(rng: &mut DetRng) -> [i64; 4] {
    [small(rng), small(rng), small(rng), small(rng)]
}

#[test]
fn simplify_preserves_meaning_det() {
    let mut rng = DetRng::new(0x5148_0001);
    let defs = layer_defs();
    let ctx = RewriteCtx::new(&defs);
    for case in 0..300 {
        let t = int_term(&mut rng, 4);
        let (x, y, a, b) = (
            small(&mut rng),
            small(&mut rng),
            small(&mut rng),
            small(&mut rng),
        );
        let v = small_vec(&mut rng);
        let s = simplify(&ctx, &t);
        assert_eq!(
            eval_with_env(&t, x, y, a, b, v),
            eval_with_env(&s, x, y, a, b, v),
            "case {case}: simplify changed the meaning of {t:?} (became {s:?})"
        );
    }
}

#[test]
fn constant_folding_is_consistent_det() {
    let mut rng = DetRng::new(0x5148_0002);
    let defs = layer_defs();
    let mut ctx = RewriteCtx::new(&defs);
    ctx.declare_const("state", "a", Term::Int(3));
    for case in 0..200 {
        let t = int_term(&mut rng, 3);
        let (x, y, b) = (small(&mut rng), small(&mut rng), small(&mut rng));
        let v = small_vec(&mut rng);
        let s = simplify(&ctx, &t);
        assert_eq!(
            eval_with_env(&t, x, y, 3, b, v),
            eval_with_env(&s, x, y, 3, b, v),
            "case {case}"
        );
    }
}

#[test]
fn ccp_simplification_sound_under_ccp_det() {
    let mut rng = DetRng::new(0x5148_0003);
    let defs = layer_defs();
    let mut ctx = RewriteCtx::new(&defs);
    ctx.assume(Term::Prim(Prim::Eq, vec![var("x"), state_field("a")]));
    for case in 0..200 {
        let t = int_term(&mut rng, 3);
        let (xa, y, b) = (small(&mut rng), small(&mut rng), small(&mut rng));
        let v = small_vec(&mut rng);
        let s = simplify(&ctx, &t);
        // x and state.a share the value `xa`: the CCP holds.
        assert_eq!(
            eval_with_env(&t, xa, y, xa, b, v),
            eval_with_env(&s, xa, y, xa, b, v),
            "case {case}"
        );
    }
}

#[test]
fn simplify_never_grows_pure_terms_det() {
    let mut rng = DetRng::new(0x5148_0004);
    let defs = layer_defs();
    let ctx = RewriteCtx::new(&defs);
    for case in 0..300 {
        let t = int_term(&mut rng, 4);
        let s = simplify(&ctx, &t);
        assert!(
            s.size() <= t.size(),
            "case {case}: {} -> {}",
            t.size(),
            s.size()
        );
    }
}
