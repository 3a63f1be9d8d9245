//! ZipServ's contribution: the **Tensor-Core-Aware Triple Bitmap Encoding**
//! (TCA-TBE) lossless weight format, its offline compressor, the
//! thread-local decompressor, and the fused **ZipGEMM** kernel.
//!
//! TCA-TBE is a *fixed-length* lossless format for BF16 weights. Offline
//! (Algorithm 1), the compressor finds the best window of 7 numerically
//! consecutive exponents, records `BaseExp = min(window) − 1`, and encodes
//! every 8×8 tile as:
//!
//! * three 64-bit **bit-plane bitmaps** holding a 3-bit codeword per element
//!   (`001`–`111` = exponent `BaseExp + code`; `000` = fallback);
//! * a **PackedSignMantissa** buffer (8 bits) for in-window elements;
//! * a **FullValue** buffer (16 bits) for fallback elements.
//!
//! Online (Algorithm 2), each simulated GPU lane reconstructs its two
//! Tensor-Core fragment elements with a handful of bitwise operations:
//! indicator mask = `B1 | B2 | B3`, popcount prefix addressing, and implicit
//! base-plus-code exponent lookup — no variable-length bitstream, no
//! divergence.
//!
//! # Quickstart
//!
//! ```
//! use zipserv_bf16::gen::WeightGen;
//! use zipserv_core::TbeCompressor;
//!
//! let weights = WeightGen::new(0.02).seed(1).matrix(64, 128);
//! let compressed = TbeCompressor::new().compress(&weights)?;
//! assert_eq!(compressed.decompress(), weights);       // bit-exact
//! assert!(compressed.stats().ratio() > 1.2);          // and smaller
//! # Ok::<(), zipserv_core::TbeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod codeword;
pub mod compress;
pub mod decomp_kernel;
pub mod decompress;
mod error;
pub mod format;
pub mod kv;
pub mod zipgemm;

pub use compress::TbeCompressor;
pub use error::TbeError;
pub use format::layout::TbeMatrix;
pub use zipgemm::ZipGemm;
