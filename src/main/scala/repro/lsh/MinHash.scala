package repro.lsh

import scala.util.Random

/** MinHash signatures for Jaccard similarity estimation.
  *
  * Universal hashing h_i(x) = (a_i·x + b_i) mod p over 31-bit token hashes,
  * p prime. E[fraction of equal signature slots] = Jaccard(S1, S2); the
  * LSH banding on top of it (see [[AttributePartitioner]]) finds candidate
  * similar attribute pairs without all-pairs comparison.
  *
  * The sizes are fixed: [[NumHashes]] = 128 slots in [[Bands]] = 64 bands
  * of 2 rows, so two attributes share a band bucket with probability about
  * J², and a pair at the default exact-Jaccard threshold 0.3 is proposed
  * with probability 1-(1-0.09)^64 ≈ 0.998. LSH recall is then a no-op at
  * attribute counts, and the exact filter keeps precision. The
  * coefficients are drawn from a fixed seed, so signatures are
  * deterministic.
  */
object MinHasher {

  val NumHashes = 128
  val Bands = 64
  private val Rows = NumHashes / Bands

  private val P = 2147483647L // Mersenne prime 2^31 - 1
  private val (as, bs) = {
    val rnd = new Random(17L)
    val a = Array.fill(NumHashes)(1L + rnd.nextLong(P - 1))
    val b = Array.fill(NumHashes)(rnd.nextLong(P))
    (a, b)
  }

  /** Signature of a token set; empty sets get an all-MaxValue signature. */
  def signature(tokens: Iterable[String]): Array[Long] = {
    val sig = Array.fill(NumHashes)(Long.MaxValue)
    tokens.foreach { t =>
      val x = (t.hashCode & 0x7fffffff).toLong
      var i = 0
      while (i < NumHashes) {
        val h = (as(i) * x + bs(i)) % P
        if (h < sig(i)) sig(i) = h
        i += 1
      }
    }
    sig
  }

  /** LSH band keys: one bucket id per band; equal key in any band ⇒
    * candidate pair.
    */
  def bandKeys(sig: Array[Long]): Seq[(Int, Long)] =
    (0 until Bands).map { b =>
      var h = 1125899906842597L
      var i = b * Rows
      while (i < (b + 1) * Rows) { h = 31 * h + sig(i); i += 1 }
      (b, h)
    }
}

/** Exact Jaccard, the ground truth MinHash approximates. */
object Jaccard {
  def apply[T](s1: Set[T], s2: Set[T]): Double =
    if (s1.isEmpty && s2.isEmpty) 0.0
    else (s1 & s2).size.toDouble / (s1 | s2).size
}
