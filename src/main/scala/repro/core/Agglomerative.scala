package repro.core

import repro.util.Rng

/** Average-linkage agglomerative clustering (Table VI's AGC alternative).
  *
  * Classic AGC is O(n²)–O(n³); per the original's sklearn usage it runs on a
  * bounded subsample (≤ MaxPoints) and the remaining points are assigned to
  * the nearest resulting cluster centroid — standard practice for scaling
  * hierarchical clustering, documented in DESIGN.md.
  */
object Agglomerative {

  val MaxPoints = 500

  def fit(points: Array[Array[Double]], k: Int, seedKey: String): LocalKMeans.Result = {
    val n = points.length
    val kk = math.max(1, math.min(k, n))
    val subIdx: Array[Int] =
      if (n <= MaxPoints) Array.range(0, n)
      else Array.tabulate(MaxPoints)(i => Rng.int(n, seedKey, "sub", i)).distinct
    val sub = subIdx.map(points)
    val m = sub.length
    val kEff = math.min(kk, m)

    // ids of the clusters not yet merged away; cluster i starts as point i
    val active = scala.collection.mutable.ArrayBuffer.tabulate(m)(identity)
    // pairwise average-linkage distances via centroid sums (average linkage
    // approximated by centroid distance — the common scalable variant); each
    // cluster's centroid is kept and recomputed only when it absorbs another
    val sums = sub.map(_.clone())
    val cnts = Array.fill(m)(1)
    val cents = sub.map(_.clone())

    while (active.length > kEff) {
      // find the closest active pair by centroid distance
      var bi = 0; var bj = 1; var bd = Double.MaxValue
      var i = 0
      while (i < active.length) {
        val ci = cents(active(i))
        var j = i + 1
        while (j < active.length) {
          val d = LocalKMeans.sqDist(ci, cents(active(j)))
          if (d < bd) { bd = d; bi = i; bj = j }
          j += 1
        }
        i += 1
      }
      val a = active(bi); val b = active(bj)
      var d = 0
      while (d < sums(a).length) { sums(a)(d) += sums(b)(d); d += 1 }
      cnts(a) += cnts(b)
      cents(a) = sums(a).map(_ / cnts(a))
      active.remove(bj)
    }

    val centroids = active.toArray.map(cents)
    val assignments = Array.tabulate(n)(i => LocalKMeans.nearest(points(i), centroids))
    LocalKMeans.Result(assignments, centroids)
  }
}
