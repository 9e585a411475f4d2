package repro.lsh

import scala.collection.mutable

/** Union-find with path compression. The transitive-closure step of
  * attribute partitioning operates on a handful of attributes, so it runs
  * on the driver. `ConnectedComponents` closes each partition's match
  * edges with it on the executors and merges the resulting forests with it
  * on the driver.
  *
  * `find` is iterative, so a chain of any length closes without growing
  * the call stack.
  */
final class UnionFind[T] {
  private val parent = mutable.Map.empty[T, T]

  def find(x: T): T = {
    var root = parent.getOrElseUpdate(x, x)
    var child = x
    while (root != child) {
      child = root
      root = parent(root)
    }
    // Second pass: point every node on the walked path at the root.
    var node = x
    while (node != root) {
      val next = parent(node)
      parent(node) = root
      node = next
    }
    root
  }

  def union(a: T, b: T): Unit = {
    val (ra, rb) = (find(a), find(b))
    if (ra != rb) parent(rb) = ra
  }

  /** Members grouped by representative (only elements ever touched). */
  def components: Map[T, Set[T]] =
    parent.keys.toSeq.groupBy(find).map { case (r, xs) => r -> xs.toSet }
}
