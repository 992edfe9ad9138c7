//! Dense vector helpers used across the workspace.
//!
//! Operations are written against plain `&[f64]` / `&mut [f64]` slices so
//! call sites never need to convert into a bespoke vector type.

/// Dot product `xᵀy`. Panics in debug builds if lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← a·x + y` (the BLAS `axpy`).
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y` (the BLAS `xpby`), useful for CG direction updates.
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi + b * *yi;
    }
}

/// Scale a vector in place: `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Elementwise subtraction `x - y` into a new vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a - b).collect()
}

/// Elementwise addition `x + y` into a new vector.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| a + b).collect()
}

/// Elementwise soft-thresholding operator
/// `SoftThreshold(x, c) = sign(x)·max(|x| − c, 0)` (paper Algorithm 2,
/// line 3). `c` must be non-negative.
pub fn soft_threshold(x: &[f64], c: f64) -> Vec<f64> {
    debug_assert!(c >= 0.0, "soft threshold requires c >= 0");
    x.iter()
        .map(|&v| v.signum() * (v.abs() - c).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, -5.0, 6.0];
        assert_eq!(dot(&x, &y), 12.0);
        assert!((norm2(&x) - 14.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_xpby() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);

        let r = [1.0, 1.0, 1.0];
        let mut p = [2.0, 4.0, 6.0];
        xpby(&r, 0.5, &mut p);
        assert_eq!(p, [2.0, 3.0, 4.0]);
    }

    #[test]
    fn scale_add_sub() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn soft_threshold_shrinks_towards_zero() {
        let x = [3.0, -3.0, 0.5, -0.5, 0.0];
        let s = soft_threshold(&x, 1.0);
        assert_eq!(s, vec![2.0, -2.0, 0.0, 0.0, 0.0]);
        // c = 0 is the identity.
        assert_eq!(soft_threshold(&x, 0.0), x.to_vec());
    }

    #[test]
    fn soft_threshold_never_increases_magnitude_or_flips_sign() {
        let xs = [-5.0, -0.1, 0.0, 0.2, 7.5];
        for &c in &[0.0, 0.1, 1.0, 10.0] {
            for (orig, new) in xs.iter().zip(soft_threshold(&xs, c)) {
                assert!(new.abs() <= orig.abs() + 1e-15);
                assert!(new * orig >= 0.0);
            }
        }
    }
}
